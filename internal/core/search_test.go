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
// the shared engine again; it belongs on search. The same holds for the
// Config an Engine embeds (its one embedded field) and a router holds.
func TestEngineFieldsExported(t *testing.T) {
	embedded := 0
	for _, typ := range []reflect.Type{reflect.TypeOf(Engine{}), reflect.TypeOf(Config{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: per-call state lives on search, not on the shared engine", typ.Name(), f.Name)
			}
			if f.Anonymous {
				embedded++
				if typ != reflect.TypeOf(Engine{}) || f.Type != reflect.TypeOf(Config{}) {
					t.Errorf("%s embeds %s; only Engine embeds, and only Config", typ.Name(), f.Type)
				}
			}
		}
	}
	if embedded != 1 {
		t.Errorf("%d embedded fields; want Engine's one Config", embedded)
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
