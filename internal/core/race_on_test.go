//go:build race

package core_test

// raceEnabled reports whether the test binary was built with -race. Under
// the detector sync.Pool deliberately drops a share of what is put into it,
// so allocation-count guards do not hold there.
const raceEnabled = true
