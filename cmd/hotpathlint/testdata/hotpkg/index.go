//rt:hotpath
package hotpkg

// Index holds the three ways to index a map, plus a legal slice index and a
// generic instantiation (also an index expression), so the linter test can
// pin exactly three findings.
func Index(m map[int]int, s []int) int {
	v := m[1]
	if w, ok := m[2]; ok {
		v += w
	}
	m[3] = v
	return v + s[0] + first[int](s)
}

func first[T any](xs []T) T { return xs[0] }
