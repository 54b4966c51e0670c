package main

import (
	"math"
	"strings"
	"testing"
)

func TestRangeFlagsCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    rangeFlags
		want string // substring of the error; "" means accepted
	}{
		{"defaults", rangeFlags{queries: 100, scale: 0.02, budget: 20_000_000}, ""},
		{"smallest run", rangeFlags{queries: 1, scale: 1, budget: 0}, ""},
		{"no queries", rangeFlags{queries: 0, scale: 0.02}, "-queries 0: want at least 1"},
		{"negative queries", rangeFlags{queries: -1, scale: 0.02}, "-queries -1: want at least 1"},
		{"zero scale", rangeFlags{queries: 1, scale: 0}, "-scale 0: want a value in (0, 1]"},
		{"negative scale", rangeFlags{queries: 1, scale: -1}, "-scale -1: want a value in (0, 1]"},
		{"scale above 1", rangeFlags{queries: 1, scale: 1.5}, "-scale 1.5"},
		{"NaN scale", rangeFlags{queries: 1, scale: math.NaN()}, "-scale NaN"},
		{"negative budget", rangeFlags{queries: 1, scale: 1, budget: -1}, "-budget -1"},
	} {
		err := tc.f.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
