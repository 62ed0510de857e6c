package soap

// InternTableLen reports how many names the wire path's intern table holds,
// for the external tests that drive whole protocol stacks over this package.
func InternTableLen() int { return len(*names.m.Load()) }

// MaxInternSymbols is the table size up to which FlatText.Symbol learns.
const MaxInternSymbols = maxInternSymbols
