package sql

import (
	"strings"
	"testing"
	"time"
)

func TestContractParse(t *testing.T) {
	cases := []struct {
		in      string
		errPct  float64
		confPct float64
		dl      time.Duration
	}{
		{"SELECT a, SUM(b) FROM t GROUP BY a ERROR WITHIN 2% CONFIDENCE 95%", 2, 95, 0},
		{"SELECT a FROM t ERROR WITHIN 2.5%", 2.5, 0, 0},
		{"SELECT a FROM t WITHIN 500ms", 0, 0, 500 * time.Millisecond},
		{"SELECT a FROM t WITHIN 2s", 0, 0, 2 * time.Second},
		{"SELECT a FROM t WITHIN 250us", 0, 0, 250 * time.Microsecond},
		{"SELECT a FROM t ERROR WITHIN 10% CONFIDENCE 99% WITHIN 1s", 10, 99, time.Second},
		// Clauses accepted in either order.
		{"SELECT a FROM t WITHIN 1s ERROR WITHIN 10%", 10, 0, time.Second},
		// Contract after LIMIT.
		{"SELECT a FROM t LIMIT 5 ERROR WITHIN 1%", 1, 0, 0},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if s.Contract == nil {
			t.Fatalf("Parse(%q): no contract", c.in)
		}
		if s.Contract.ErrPct != c.errPct || s.Contract.ConfPct != c.confPct || s.Contract.Deadline != c.dl {
			t.Fatalf("Parse(%q): contract %+v, want err=%g conf=%g dl=%v",
				c.in, s.Contract, c.errPct, c.confPct, c.dl)
		}
	}
}

func TestContractRoundTrip(t *testing.T) {
	cases := []struct{ in, want string }{
		{
			"SELECT a, SUM(b) FROM t GROUP BY a ERROR WITHIN 2% CONFIDENCE 95%",
			"SELECT a, SUM(b) FROM t GROUP BY a ERROR WITHIN 2% CONFIDENCE 95%",
		},
		{"SELECT a FROM t WITHIN 500ms", "SELECT a FROM t WITHIN 500ms"},
		// Fractional durations canonicalize to the largest dividing unit.
		{"SELECT a FROM t WITHIN 0.5s", "SELECT a FROM t WITHIN 500ms"},
		{"SELECT a FROM t WITHIN 1.5ms", "SELECT a FROM t WITHIN 1500us"},
		// Clause order canonicalizes to ERROR then WITHIN.
		{"SELECT a FROM t WITHIN 1s ERROR WITHIN 10%", "SELECT a FROM t ERROR WITHIN 10% WITHIN 1s"},
		// Exponent forms canonicalize via %g.
		{"SELECT a FROM t ERROR WITHIN 1e1%", "SELECT a FROM t ERROR WITHIN 10%"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		got := s.String()
		if got != c.want {
			t.Fatalf("String(%q) = %q, want %q", c.in, got, c.want)
		}
		// Printed form must re-parse to a fixed point (FuzzParse invariant).
		s2, err := Parse(got)
		if err != nil {
			t.Fatalf("reparse %q: %v", got, err)
		}
		if s2.String() != got {
			t.Fatalf("not a fixed point: %q -> %q", got, s2.String())
		}
	}
}

func TestContractParseErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"SELECT a FROM t ERROR 2%", "WITHIN"},
		{"SELECT a FROM t ERROR WITHIN 2% ERROR WITHIN 3%", "duplicate"},
		{"SELECT a FROM t WITHIN 1s WITHIN 2s", "duplicate"},
		{"SELECT a FROM t ERROR WITHIN 0%", "positive"},
		{"SELECT a FROM t ERROR WITHIN 2% CONFIDENCE 100%", "confidence"},
		{"SELECT a FROM t ERROR WITHIN 2% CONFIDENCE 0%", "positive"},
		{"SELECT a FROM t WITHIN 500", "unit"},
		{"SELECT a FROM t WITHIN 500 zorks", "unit"},
		{"SELECT a FROM t WITHIN 0s", "positive"},
		{"SELECT a FROM t ERROR WITHIN 2", "%"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Fatalf("Parse(%q): expected error", c.in)
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.wantSub)) {
			t.Fatalf("Parse(%q): error %q does not mention %q", c.in, err, c.wantSub)
		}
	}
}

func TestContractUnionArms(t *testing.T) {
	// A trailing contract after a UNION ALL arm binds to the whole
	// statement: the head carries it, no arm does, and it must still
	// round-trip.
	for _, in := range []string{
		"SELECT a FROM t UNION ALL SELECT a FROM u ERROR WITHIN 5%",
		"SELECT a FROM t UNION ALL SELECT a FROM u WITHIN 1ms",
		"SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v LIMIT 3 WITHIN 1ms ERROR WITHIN 5%",
	} {
		s, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if s.Contract == nil {
			t.Fatalf("Parse(%q): the head carries no contract", in)
		}
		for i, u := range s.UnionAll {
			if u.Contract != nil || u.UnionAll != nil {
				t.Fatalf("Parse(%q): arm %d carries a contract or arms of its own", in, i+1)
			}
		}
		got := s.String()
		s2, err := Parse(got)
		if err != nil {
			t.Fatalf("reparse %q: %v", got, err)
		}
		if s2.String() != got || s2.Contract == nil || *s2.Contract != *s.Contract {
			t.Fatalf("not a fixed point: %q -> %q", got, s2.String())
		}
	}
	// A clause written on any arm but the last is an error.
	for _, in := range []string{
		"SELECT a FROM t ERROR WITHIN 5% UNION ALL SELECT a FROM u",
		"SELECT a FROM t UNION ALL SELECT a FROM u WITHIN 1ms UNION ALL SELECT a FROM v",
		"SELECT a FROM t WITHIN 1ms UNION ALL SELECT a FROM u ERROR WITHIN 5%",
	} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), "last UNION ALL arm") {
			t.Fatalf("Parse(%q): err %v, want a contract-position error", in, err)
		}
	}
}
