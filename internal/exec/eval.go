// Package exec compiles optimized logical plans into partitioned
// physical plans and executes them, producing real answers while
// accounting simulated cluster costs (machine-hours, runtime,
// intermediate and shuffled data) through internal/cluster.
package exec

import (
	"strings"

	"quickr/internal/lplan"
)

// colMap resolves ColumnIDs to row positions for one operator input.
type colMap map[lplan.ColumnID]int

func buildColMap(cols []lplan.ColumnInfo) colMap {
	m := make(colMap, len(cols))
	for i, c := range cols {
		if _, dup := m[c.ID]; !dup {
			m[c.ID] = i
		}
	}
	return m
}

// compileLike builds a matcher for a SQL LIKE pattern with % and _.
func compileLike(pattern string) func(string) bool {
	// Fast paths for the common shapes.
	if !strings.ContainsAny(pattern, "%_") {
		return func(s string) bool { return s == pattern }
	}
	if strings.Count(pattern, "%") == 1 && !strings.Contains(pattern, "_") {
		switch {
		case strings.HasSuffix(pattern, "%"):
			p := pattern[:len(pattern)-1]
			return func(s string) bool { return strings.HasPrefix(s, p) }
		case strings.HasPrefix(pattern, "%"):
			p := pattern[1:]
			return func(s string) bool { return strings.HasSuffix(s, p) }
		}
	}
	// General recursive matcher.
	var match func(s, p string) bool
	match = func(s, p string) bool {
		for len(p) > 0 {
			switch p[0] {
			case '%':
				for len(p) > 0 && p[0] == '%' {
					p = p[1:]
				}
				if len(p) == 0 {
					return true
				}
				for i := 0; i <= len(s); i++ {
					if match(s[i:], p) {
						return true
					}
				}
				return false
			case '_':
				if len(s) == 0 {
					return false
				}
				s, p = s[1:], p[1:]
			default:
				if len(s) == 0 || s[0] != p[0] {
					return false
				}
				s, p = s[1:], p[1:]
			}
		}
		return len(s) == 0
	}
	return func(s string) bool { return match(s, pattern) }
}
