package main

import (
	"context"
	"math"
	"slices"
	"testing"
)

// TestFeedsDeterministic: the same seed gives the same feed sequence for
// every (step, worker), and another seed gives another one.
func TestFeedsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newFeeder(w, 7), newFeeder(w, 7), newFeeder(w, 8)
		differs := false
		for step := 0; step < 20; step++ {
			for wk := 0; wk < workers; wk++ {
				ta, la := a.tokens(step, wk)
				tb, lb := b.tokens(step, wk)
				if !slices.Equal(ta, tb) || !slices.Equal(la, lb) {
					t.Fatalf("%s: step %d worker %d feeds differ for one seed", w.name, step, wk)
				}
				tc, _ := c.tokens(step, wk)
				differs = differs || !slices.Equal(ta, tc)
				for i, tok := range ta {
					if tok < 0 || tok >= w.vocab || la[i] < 0 || la[i] >= w.classes {
						t.Fatalf("%s: token %d label %d out of range", w.name, tok, la[i])
					}
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same feeds", w.name)
		}
	}
}

func TestGraphInitializersSeeded(t *testing.T) {
	w, _ := lookupWorkload("lm-inproc")
	a, b, c := w.graph(3), w.graph(3), w.graph(4)
	ea, eb, ec := varInit(a, "embedding").Data(), varInit(b, "embedding").Data(), varInit(c, "embedding").Data()
	if !slices.Equal(ea, eb) {
		t.Fatal("one seed built two different embeddings")
	}
	if slices.Equal(ea, ec) {
		t.Fatal("two seeds built the same embedding")
	}
}

// TestFinalLossBits: lm-inproc's final-loss bits repeat for one seed,
// differ for another, and lm-tcp reproduces them step for step.
func TestFinalLossBits(t *testing.T) {
	ctx := context.Background()
	const steps = 12
	run := func(name string, seed int64) []float64 {
		t.Helper()
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		j := newJob(w, seed)
		sess, err := j.open(ctx, "", -1)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := j.drive(ctx, sess, forSteps(steps), false, -1)
		if cerr := j.close(sess, -1); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		return losses(recs)
	}
	a, b, c := run("lm-inproc", 5), run("lm-inproc", 5), run("lm-inproc", 6)
	last := func(ls []float64) uint64 { return math.Float64bits(ls[len(ls)-1]) }
	if last(a) != last(b) {
		t.Fatalf("seed 5 final-loss bits %x then %x", last(a), last(b))
	}
	if last(a) == last(c) {
		t.Fatalf("seeds 5 and 6 share final-loss bits %x", last(a))
	}
	if err := compareLosses("lm-tcp vs lm-inproc", run("lm-tcp", 5), a); err != nil {
		t.Fatal(err)
	}
}
