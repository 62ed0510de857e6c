package clock

// FreeLen reports how many recycled timers the clock's free list holds.
func (v *Virtual) FreeLen() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.free)
}
