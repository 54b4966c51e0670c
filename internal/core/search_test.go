package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"coskq/internal/kwds"
)

// TestEngineFieldsExported pins the index/search split: an Engine is
// shared by every concurrent query, so it may only hold configuration
// its owner sets. An unexported field is per-call state trying to hide on
// the shared engine again; it belongs on search.
func TestEngineFieldsExported(t *testing.T) {
	typ := reflect.TypeOf(Engine{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !f.IsExported() {
			t.Errorf("Engine.%s is unexported: per-call state lives on search, not on the shared engine", f.Name)
		}
	}
}

// TestTooManyKeywords: a query wider than the coverage masks is rejected
// with the typed error at every entry point — including inside a batch
// worker goroutine, where the panic it used to raise killed the process.
func TestTooManyKeywords(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	e := genEngine(rng, 300, 80, 3)
	ids := make([]kwds.ID, kwds.MaxQueryKeywords+1)
	for i := range ids {
		ids[i] = kwds.ID(i)
	}
	wide := Query{Keywords: kwds.NewSet(ids...)}
	if len(wide.Keywords) != kwds.MaxQueryKeywords+1 {
		t.Fatalf("fixture query has %d keywords", len(wide.Keywords))
	}
	ok := randQuery(rng, 80, 3)

	if _, err := e.Solve(wide, MaxSum, OwnerExact); !errors.Is(err, ErrTooManyKeywords) {
		t.Errorf("Solve err = %v, want ErrTooManyKeywords", err)
	}
	if _, err := e.TopK(wide, MaxSum, 3); !errors.Is(err, ErrTooManyKeywords) {
		t.Errorf("TopK err = %v, want ErrTooManyKeywords", err)
	}
	if _, err := e.SolveAlpha(wide, 0.5, OwnerExact); !errors.Is(err, ErrTooManyKeywords) {
		t.Errorf("SolveAlpha err = %v, want ErrTooManyKeywords", err)
	}
	out := e.SolveBatchCtx(context.Background(), []Query{ok, wide, wide, ok}, MaxSum, OwnerExact, 2)
	for i, item := range out {
		if wantErr := i == 1 || i == 2; wantErr != errors.Is(item.Err, ErrTooManyKeywords) {
			t.Errorf("batch item %d err = %v", i, item.Err)
		}
	}
}
