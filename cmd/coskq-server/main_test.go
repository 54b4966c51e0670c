package main

import (
	"strings"
	"testing"
)

// TestModeFlagsCheck: every single-engine flag is rejected beside -shards
// N > 1 and beside -peers, naming both flags; single-engine and default
// combinations pass.
func TestModeFlagsCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    modeFlags
		want string // substring of the error; "" means accepted
	}{
		{"single engine, every flag", modeFlags{shards: 1, live: true, nnCache: 4096, backlog: 64, compact: 0.5}, ""},
		{"shards alone", modeFlags{shards: 4}, ""},
		{"peers alone", modeFlags{peers: "http://a"}, ""},
		{"live with shards", modeFlags{shards: 4, live: true}, "-live is single-engine only and cannot be combined with -shards 4"},
		{"nn-cache with shards", modeFlags{shards: 2, nnCache: 4096}, "-nn-cache is single-engine only and cannot be combined with -shards 2"},
		{"ingest-backlog with shards", modeFlags{shards: 4, backlog: 64}, "-ingest-backlog"},
		{"compact-frac with shards", modeFlags{shards: 4, compact: -1}, "-compact-frac"},
		{"live with peers", modeFlags{peers: "http://a", live: true}, "-live is single-engine only and cannot be combined with -peers"},
		{"nn-cache with peers", modeFlags{peers: "http://a", nnCache: 16}, "-nn-cache is single-engine only and cannot be combined with -peers"},
		{"ingest-backlog with peers", modeFlags{peers: "http://a", backlog: 1}, "-ingest-backlog"},
		{"compact-frac with peers", modeFlags{peers: "http://a", compact: 0.1}, "-compact-frac"},
	} {
		err := tc.m.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
