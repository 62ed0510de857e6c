package faults

import (
	"bufio"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"wsgossip/internal/clock"
)

// Event is one timed fault operation in a Plan.
type Event struct {
	// At is the event's fire time, relative to Plan.Schedule.
	At time.Duration
	// Op is the canonical source text of the operation, for reports.
	Op string

	line         int // source line, which a rule's default name carries
	needsCrash   bool
	needsRecover bool
	apply        func(a Applier)
}

// Applier is the surface a Plan drives. Table receives every link-level
// operation; Crash and Recover handle the node-level churn operations of
// whatever fabric hosts the plan (simnet.Network.Crash, virtBus.Crash, a
// testlab SSH hook). Logf, when set, narrates each applied event.
type Applier struct {
	// Table receives link rules. Required.
	Table *Table
	// Crash takes a node offline. Required only when the plan crashes nodes.
	Crash func(addr string)
	// Recover brings a crashed node back. Required only when the plan
	// recovers nodes.
	Recover func(addr string)
	// Logf, when set, is called once per applied event.
	Logf func(format string, args ...any)
}

// Plan is a declarative timeline of fault events — the whole multi-fault
// composition (partition + churn + loss + delay at once) as one script,
// replayable under seed. Parse one with ParsePlan and arm it with Schedule.
type Plan struct {
	events []Event
}

// Events returns the plan's events in fire order.
func (p *Plan) Events() []Event {
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// String writes the plan in the grammar ParsePlan reads, such that
// ParsePlan(p.String()) yields the same events: the same times, operations
// and rule names, in the same fire order. A rule's default name is
// "<op>@<line>", so each event is written on the line it was read from, in
// source order, with the lines between left blank; no name= is added that
// the source did not have.
func (p *Plan) String() string {
	events := slices.Clone(p.events)
	slices.SortFunc(events, func(a, b Event) int { return a.line - b.line })
	var b strings.Builder
	line := 1
	for _, ev := range events {
		for ; line < ev.line; line++ {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%v %s\n", ev.At, ev.Op)
		line++
	}
	return b.String()
}

// Duration returns the fire time of the last event.
func (p *Plan) Duration() time.Duration {
	if len(p.events) == 0 {
		return 0
	}
	return p.events[len(p.events)-1].At
}

// Validate checks that the Applier supports every operation the plan uses.
func (p *Plan) Validate(a Applier) error {
	if a.Table == nil {
		return fmt.Errorf("faults: Applier.Table is required")
	}
	for _, ev := range p.events {
		if ev.needsCrash && a.Crash == nil {
			return fmt.Errorf("faults: plan op %q needs Applier.Crash", ev.Op)
		}
		if ev.needsRecover && a.Recover == nil {
			return fmt.Errorf("faults: plan op %q needs Applier.Recover", ev.Op)
		}
	}
	return nil
}

// Schedule validates the plan against a and arms one clk timer per event.
// Event times are relative to the call. Events sharing a fire time apply in
// source order (the clock fires equal deadlines in scheduling order), so a
// plan replays identically under a given seed.
func (p *Plan) Schedule(clk clock.Clock, a Applier) error {
	if err := p.Validate(a); err != nil {
		return err
	}
	for _, ev := range p.events {
		ev := ev
		clk.AfterFunc(ev.At, func() {
			ev.apply(a)
			if a.Logf != nil {
				a.Logf("faults: @%v %s", ev.At, ev.Op)
			}
		})
	}
	return nil
}

// ParsePlan reads a fault plan from its textual form. The grammar is
// line-based; '#' starts a comment and blank lines are ignored:
//
//	<at> <op> [args...]
//
//	500ms loss 0.2                      # global loss probability
//	1s    cut a->b                      # silent directional partition
//	1s    refuse a<->b                  # connection fault, both directions
//	1s    link-loss a->b 0.5            # directional loss probability
//	1s    delay a->b 20ms               # extra one-way latency
//	2s    partition n{00000..00009}     # group vs rest, both directions
//	2s    nat x via r1,r2               # x reachable only from r1, r2
//	3s    un-nat x
//	2s    crash n{00003..00004}
//	4s    recover n00003
//	5s    heal cut@2                    # remove rules installed under a name
//	6s    heal-all                      # remove every rule, NAT, and loss
//
// Link endpoints and node arguments are comma-separated sets; '*' matches
// any address, and a token may embed one numeric range, zero-padded to the
// width written ("n{00..49}" → n00, n01, …, n49). Rules default to the name
// "<op>@<line>"; a trailing "name=<label>" overrides it, which is what heal
// references.
func ParsePlan(src string) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		ev, err := parseEvent(fields, lineNo)
		if err != nil {
			return nil, fmt.Errorf("faults: plan line %d: %w", lineNo, err)
		}
		p.events = append(p.events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("faults: read plan: %w", err)
	}
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].At < p.events[j].At })
	return p, nil
}

func parseEvent(fields []string, line int) (Event, error) {
	at, err := time.ParseDuration(fields[0])
	if err != nil || at < 0 {
		return Event{}, fmt.Errorf("bad time %q", fields[0])
	}
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("no operation after %q", fields[0])
	}
	op := fields[1]
	args := fields[2:]
	name := fmt.Sprintf("%s@%d", op, line)
	if n := len(args); n > 0 && strings.HasPrefix(args[n-1], "name=") {
		name = strings.TrimPrefix(args[n-1], "name=")
		if name == "" {
			return Event{}, fmt.Errorf("empty name=")
		}
		args = args[:n-1]
	}
	ev := Event{At: at, Op: strings.Join(fields[1:], " "), line: line}

	arg1 := func() (string, error) {
		if len(args) != 1 {
			return "", fmt.Errorf("op %s wants 1 argument, got %d", op, len(args))
		}
		return args[0], nil
	}

	switch op {
	case "loss":
		a, err := arg1()
		if err != nil {
			return Event{}, err
		}
		pr, err := parseProb(a)
		if err != nil {
			return Event{}, err
		}
		ev.apply = func(a Applier) { a.Table.SetLoss(pr) }
	case "cut", "refuse":
		a, err := arg1()
		if err != nil {
			return Event{}, err
		}
		from, to, both, err := parseLink(a)
		if err != nil {
			return Event{}, err
		}
		refuse := op == "refuse"
		ev.apply = func(a Applier) {
			switch {
			case refuse && both:
				a.Table.RefuseBoth(name, from, to)
			case refuse:
				a.Table.RefuseLink(name, from, to)
			case both:
				a.Table.CutBoth(name, from, to)
			default:
				a.Table.Cut(name, from, to)
			}
		}
	case "link-loss":
		if len(args) != 2 {
			return Event{}, fmt.Errorf("link-loss wants <link> <p>")
		}
		from, to, both, err := parseLink(args[0])
		if err != nil {
			return Event{}, err
		}
		pr, err := parseProb(args[1])
		if err != nil {
			return Event{}, err
		}
		ev.apply = func(a Applier) {
			a.Table.LinkLoss(name, from, to, pr)
			if both {
				a.Table.LinkLoss(name, to, from, pr)
			}
		}
	case "delay":
		if len(args) != 2 {
			return Event{}, fmt.Errorf("delay wants <link> <duration>")
		}
		from, to, both, err := parseLink(args[0])
		if err != nil {
			return Event{}, err
		}
		d, err := time.ParseDuration(args[1])
		if err != nil || d < 0 {
			return Event{}, fmt.Errorf("bad duration %q", args[1])
		}
		ev.apply = func(a Applier) {
			a.Table.LinkDelay(name, from, to, d)
			if both {
				a.Table.LinkDelay(name, to, from, d)
			}
		}
	case "partition":
		a, err := arg1()
		if err != nil {
			return Event{}, err
		}
		group, err := parseSet(a)
		if err != nil || group == nil {
			return Event{}, fmt.Errorf("bad group %q", a)
		}
		ev.apply = func(a Applier) { a.Table.Partition(name, group) }
	case "nat":
		if len(args) != 3 || args[1] != "via" {
			return Event{}, fmt.Errorf("nat wants <node> via <relays>")
		}
		node := args[0]
		relays, err := parseSet(args[2])
		if err != nil || relays == nil {
			return Event{}, fmt.Errorf("bad relay set %q", args[2])
		}
		ev.apply = func(a Applier) { a.Table.SetNAT(node, relays...) }
	case "un-nat":
		node, err := arg1()
		if err != nil {
			return Event{}, err
		}
		ev.apply = func(a Applier) { a.Table.ClearNAT(node) }
	case "heal":
		target, err := arg1()
		if err != nil {
			return Event{}, err
		}
		ev.apply = func(a Applier) { a.Table.Heal(target) }
	case "heal-all":
		if len(args) != 0 {
			return Event{}, fmt.Errorf("heal-all takes no arguments")
		}
		ev.apply = func(a Applier) { a.Table.HealAll() }
	case "crash", "recover":
		a, err := arg1()
		if err != nil {
			return Event{}, err
		}
		nodes, err := parseSet(a)
		if err != nil || nodes == nil {
			return Event{}, fmt.Errorf("bad node set %q", a)
		}
		if op == "crash" {
			ev.needsCrash = true
			ev.apply = func(a Applier) {
				for _, n := range nodes {
					a.Crash(n)
				}
			}
		} else {
			ev.needsRecover = true
			ev.apply = func(a Applier) {
				for _, n := range nodes {
					a.Recover(n)
				}
			}
		}
	default:
		return Event{}, fmt.Errorf("unknown op %q", op)
	}
	return ev, nil
}

// parseLink splits "A->B" or "A<->B" into endpoint sets. A '*' endpoint
// yields a nil (match-any) set.
func parseLink(s string) (from, to []string, both bool, err error) {
	var l, r string
	if i := strings.Index(s, "<->"); i >= 0 {
		l, r, both = s[:i], s[i+3:], true
	} else if i := strings.Index(s, "->"); i >= 0 {
		l, r = s[:i], s[i+2:]
	} else {
		return nil, nil, false, fmt.Errorf("bad link %q (want A->B or A<->B)", s)
	}
	if from, err = parseSet(l); err != nil {
		return nil, nil, false, err
	}
	if to, err = parseSet(r); err != nil {
		return nil, nil, false, err
	}
	if both && (from == nil || to == nil) {
		return nil, nil, false, fmt.Errorf("bad link %q: '*' cannot be bidirectional", s)
	}
	return from, to, both, nil
}

// parseSet expands a comma-separated address set. "*" returns nil
// (match-any). A token may embed one "{A..B}" numeric range; the expansion
// zero-pads to the width A was written with.
func parseSet(s string) ([]string, error) {
	if s == "*" {
		return nil, nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok == "" {
			return nil, fmt.Errorf("empty address in set %q", s)
		}
		open := strings.IndexByte(tok, '{')
		if open < 0 {
			out = append(out, tok)
			continue
		}
		close := strings.IndexByte(tok, '}')
		if close < open {
			return nil, fmt.Errorf("bad range in %q", tok)
		}
		bounds := strings.SplitN(tok[open+1:close], "..", 2)
		if len(bounds) != 2 {
			return nil, fmt.Errorf("bad range in %q (want {lo..hi})", tok)
		}
		lo, err1 := strconv.Atoi(bounds[0])
		hi, err2 := strconv.Atoi(bounds[1])
		if err1 != nil || err2 != nil || lo > hi {
			return nil, fmt.Errorf("bad range bounds in %q", tok)
		}
		width := len(bounds[0])
		prefix, suffix := tok[:open], tok[close+1:]
		for i := lo; i <= hi; i++ {
			out = append(out, fmt.Sprintf("%s%0*d%s", prefix, width, i, suffix))
		}
	}
	return out, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("bad probability %q", s)
	}
	return p, nil
}
