package coskqlint

import "testing"

// TestAnalyzersOrder pins the suite's names and order: they are the
// //coskq:nolint spellings, the unitchecker flag names and the order
// diagnostics print in.
func TestAnalyzersOrder(t *testing.T) {
	want := []string{
		"ctxpoll", "geodist", "slogonly", "spanend", "detmaps", "errtyped",
		"metriclabel", "poolscratch", "rpcdeadline", "epochpin",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() has %d entries, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}
