package stream

// ForcePerFiring makes every engine started until restore is called fire
// one firing per transit call, as the concurrent engine does: what
// grouped runs must match. Tests that call it must not run in parallel.
func ForcePerFiring() (restore func()) {
	saved := runItems
	runItems = 0
	return func() { runItems = saved }
}
