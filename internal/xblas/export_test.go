package xblas

// Levels returns the kernel level names the host runs, lowest first.
func Levels() []string { return levelNames[:hostLevel+1] }

// ForceLevel makes the named level (one of Levels) the one in use, for
// tests that hold callers of the package to the same bits at every level.
// It returns a function restoring the previous level.
func ForceLevel(name string) (restore func()) {
	prev := level
	for l, n := range levelNames[:hostLevel+1] {
		if n == name {
			level = l
		}
	}
	return func() { level = prev }
}
