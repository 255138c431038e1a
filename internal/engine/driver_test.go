package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
)

// TestMappedLocalBackendMatchesUnmapped: a local backend given explicit
// identity id maps takes the shard path — frontier restriction, mapped
// drain, activations merged into the global frontier — and must reproduce
// the unmapped backend RunCtx uses, bit for bit.
func TestMappedLocalBackendMatchesUnmapped(t *testing.T) {
	g := smallHG(7)
	prep := Prepare(g, 4, 1)
	vs := make([]uint32, g.NumVertices())
	for i := range vs {
		vs[i] = uint32(i)
	}
	hs := make([]uint32, g.NumHyperedges())
	for i := range hs {
		hs[i] = uint32(i)
	}
	algs := []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewBFS(0) },
		func() algorithms.Algorithm { return algorithms.NewPageRank(3) },
	}
	for _, kind := range allKinds {
		for a, mk := range algs {
			opt := Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1, Workers: 1}
			want, err := RunCtx(context.Background(), g, mk(), opt)
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewInstance(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Drive(context.Background(), g, mk(), []Backend{NewLocalBackend(in, vs, hs)}, opt, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v alg %d: mapped backend differs from unmapped:\n got %+v\nwant %+v", kind, a, got, want)
			}
		}
	}
}

// faultyBackend fails the named call of a real backend.
type faultyBackend struct {
	Backend
	failAt string
}

var errInjected = errors.New("injected backend failure")

func (f *faultyBackend) fail(call string) error {
	if call == f.failAt {
		return fmt.Errorf("%s: %w", call, errInjected)
	}
	return nil
}

func (f *faultyBackend) ChargePreprocess(ctx context.Context) (uint64, error) {
	if err := f.fail("ChargePreprocess"); err != nil {
		return 0, err
	}
	return f.Backend.ChargePreprocess(ctx)
}

func (f *faultyBackend) Begin(ctx context.Context, ph Phase, frontierV bitset.Bitmap) error {
	if err := f.fail("Begin " + ph.String()); err != nil {
		return err
	}
	return f.Backend.Begin(ctx, ph, frontierV)
}

func (f *faultyBackend) Drain(fn func(src, dst uint32) algorithms.EdgeResult) error {
	if err := f.fail("Drain"); err != nil {
		return err
	}
	return f.Backend.Drain(fn)
}

func (f *faultyBackend) Commit(ctx context.Context) (uint64, error) {
	if err := f.fail("Commit"); err != nil {
		return 0, err
	}
	return f.Backend.Commit(ctx)
}

func (f *faultyBackend) AdvanceIteration(ctx context.Context) error {
	if err := f.fail("AdvanceIteration"); err != nil {
		return err
	}
	return f.Backend.AdvanceIteration(ctx)
}

func (f *faultyBackend) Finish(ctx context.Context) (*Result, error) {
	if err := f.fail("Finish"); err != nil {
		return nil, err
	}
	return f.Backend.Finish(ctx)
}

// TestDriveBackendFailure: whichever call a backend fails, Drive returns
// that error and still Closes every backend, so no arena stays borrowed.
func TestDriveBackendFailure(t *testing.T) {
	g := smallHG(3)
	prep := Prepare(g, 4, 1)
	opt := Options{Kind: ChGraph, Sys: testSys(), Prep: prep, WMin: 1, Workers: 2, ChargePreprocess: true}
	for _, call := range []string{"ChargePreprocess", "Begin hyperedge", "Begin vertex", "Drain", "Commit", "AdvanceIteration", "Finish"} {
		t.Run(call, func(t *testing.T) {
			bks := make([]Backend, 2)
			for i := range bks {
				in, err := NewInstance(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				bks[i] = NewLocalBackend(in, nil, nil)
			}
			bks[1] = &faultyBackend{Backend: bks[1], failAt: call}
			_, _, err := Drive(context.Background(), g, algorithms.NewPageRank(2), bks, opt, time.Time{})
			if !errors.Is(err, errInjected) {
				t.Fatalf("Drive returned %v, want the injected failure", err)
			}
			if n := prep.ScratchOutstanding(); n != 0 {
				t.Fatalf("%d arenas outstanding after a failed run", n)
			}
		})
	}
}
