package main

import (
	"strings"
	"testing"

	"coskq/internal/core"
)

// The -cost and -method flags accept exactly core.ParseCost's and
// core.ParseMethod's names, in any case.

func TestParseCost(t *testing.T) {
	for in, want := range map[string]core.CostKind{
		"maxsum": core.MaxSum, "MaxSum": core.MaxSum, "MAXSUM": core.MaxSum,
		"dia": core.Dia, "sum": core.Sum, "minmax": core.MinMax, "MinMax": core.MinMax,
		"summax": core.SumMax, "SumMax": core.SumMax,
	} {
		if got, err := core.ParseCost(in); err != nil || got != want {
			t.Errorf("ParseCost(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "bogus", "max-sum"} {
		_, err := core.ParseCost(in)
		if err == nil || !strings.Contains(err.Error(), "unknown cost") || !strings.Contains(err.Error(), "summax") {
			t.Errorf("ParseCost(%q) error = %v; want an unknown-cost error listing the names", in, err)
		}
	}
}

func TestParseMethod(t *testing.T) {
	for in, want := range map[string]core.Method{
		"exact": core.OwnerExact, "owner-exact": core.OwnerExact, "Exact": core.OwnerExact,
		"appro": core.OwnerAppro, "owner-appro": core.OwnerAppro,
		"cao-exact": core.CaoExact, "Cao-Exact": core.CaoExact,
		"cao-appro1": core.CaoAppro1,
		"cao-appro2": core.CaoAppro2,
		"brute":      core.Brute,
	} {
		if got, err := core.ParseMethod(in); err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "bogus", "pairs"} {
		_, err := core.ParseMethod(in)
		if err == nil || !strings.Contains(err.Error(), "unknown method") || !strings.Contains(err.Error(), "cao-appro2") {
			t.Errorf("ParseMethod(%q) error = %v; want an unknown-method error listing the names", in, err)
		}
	}
}
