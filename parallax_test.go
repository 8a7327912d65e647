package parallax

import (
	"context"
	"iter"
	"strings"
	"testing"

	"parallax/internal/data"
)

// buildAPIModel constructs a small sparse model purely through the public
// API, following the Fig. 3 pattern.
func buildAPIModel(batch, vocab int) *Graph {
	rng := NewRNG(17)
	g := NewGraph()
	tokens := g.Input("tokens", Int, batch)
	labels := g.Input("labels", Int, batch)
	var emb *Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, vocab, 16))
	})
	w := g.Variable("proj", rng.RandN(0.1, 16, vocab))
	g.SoftmaxCE(g.MatMul(g.Gather(emb, tokens), w), labels)
	return g
}

// openAPI opens an in-process session on the given cluster, closed when
// the test ends.
func openAPI(t testing.TB, g *Graph, res ResourceInfo, opts ...Option) *Session {
	t.Helper()
	s, err := Open(context.Background(), g, res, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// takeSteps ranges over a step iterator until n steps have been yielded,
// passing each to observe (if non-nil), and returns their aggregate and
// the first error the iterator yielded.
func takeSteps(steps iter.Seq2[StepStats, error], n int, observe func(StepStats)) (LoopStats, error) {
	var stats LoopStats
	for st, err := range steps {
		if err != nil {
			return stats, err
		}
		stats.Observe(st)
		if observe != nil {
			observe(st)
		}
		if stats.Steps == n {
			break
		}
	}
	return stats, nil
}

func TestOpenDefaultsAndTraining(t *testing.T) {
	g := buildAPIModel(8, 120)
	sess := openAPI(t, g, Uniform(2, 2), WithSparsePartitions(3))
	if sess.Workers() != 4 {
		t.Fatalf("workers = %d", sess.Workers())
	}
	shards := make([]Dataset, sess.Workers())
	for w := range shards {
		shards[w] = Shard(data.NewZipfText(120, 8, 1, 1.0, 5), w, sess.Workers())
	}
	var first, last float64
	for step := 0; step < 20; step++ {
		feeds := make([]Feed, sess.Workers())
		for w := range feeds {
			b := shards[w].Next()
			feeds[w] = Feed{Ints: map[string][]int{"tokens": b.Tokens, "labels": b.Labels}}
		}
		loss, err := sess.RunStep(feeds)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestDescribeShowsHybridSplit(t *testing.T) {
	d := openAPI(t, buildAPIModel(4, 50), Uniform(2, 1), WithSparsePartitions(2)).Describe()
	if !strings.Contains(d, "embedding") || !strings.Contains(d, "ps") {
		t.Errorf("Describe missing PS route:\n%s", d)
	}
	if !strings.Contains(d, "proj") || !strings.Contains(d, "allreduce") {
		t.Errorf("Describe missing AR route:\n%s", d)
	}
	if !strings.Contains(d, "transport: inproc") {
		t.Errorf("Describe missing transport line:\n%s", d)
	}
}

func TestAutomaticPartitionSearch(t *testing.T) {
	sess := openAPI(t, buildAPIModel(8, 2000), Uniform(2, 2),
		WithAlphaHints(map[string]float64{"embedding": 0.02}))
	p := sess.SparsePartitions()
	if p < 1 || p > 2000 {
		t.Fatalf("searched partitions = %d out of range", p)
	}
	// A quick step must work with the searched partitioning.
	feeds := make([]Feed, sess.Workers())
	for w := range feeds {
		feeds[w] = Feed{Ints: map[string][]int{
			"tokens": {1, 2, 3, 4, 5, 6, 7, 8},
			"labels": {0, 1, 2, 3, 4, 5, 6, 7},
		}}
	}
	if _, err := sess.RunStep(feeds); err != nil {
		t.Fatal(err)
	}
}

func TestDenseOnlyGraphSkipsSearchAndServers(t *testing.T) {
	rng := NewRNG(3)
	g := NewGraph()
	x := g.Input("x", Float, 4, 8)
	labels := g.Input("labels", Int, 4)
	w := g.Variable("w", rng.RandN(0.2, 8, 5))
	g.SoftmaxCE(g.MatMul(x, w), labels)
	sess := openAPI(t, g, Uniform(2, 1))
	if sess.SparsePartitions() != 1 {
		t.Fatalf("dense model searched partitions: %d", sess.SparsePartitions())
	}
	feeds := make([]Feed, 2)
	for i := range feeds {
		feeds[i] = Feed{
			Floats: map[string]*Dense{"x": rng.RandN(1, 4, 8)},
			Ints:   map[string][]int{"labels": {0, 1, 2, 3}},
		}
	}
	if _, err := sess.RunStep(feeds); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidations(t *testing.T) {
	ctx := context.Background()
	g := NewGraph()
	g.Input("x", Float, 1, 1) // no loss
	if _, err := Open(ctx, g, Uniform(1, 1)); err == nil {
		t.Fatal("graph without loss must fail")
	}
	g2 := buildAPIModel(2, 10)
	if _, err := Open(ctx, g2, ResourceInfo{}); err == nil {
		t.Fatal("empty resources must fail")
	}
}

func TestStepsPublicAPI(t *testing.T) {
	sess := openAPI(t, buildAPIModel(8, 150), Uniform(2, 2), WithSparsePartitions(3))

	var hookSteps int
	var lastStats StepStats
	ctx := context.Background()
	stats, err := takeSteps(sess.Steps(ctx, data.NewZipfText(150, 8, 1, 1.0, 21)), 25, func(s StepStats) {
		if s.Step != hookSteps {
			t.Errorf("hook saw step %d, want %d", s.Step, hookSteps)
		}
		hookSteps++
		lastStats = s
	})
	if err != nil {
		t.Fatal(err)
	}
	if hookSteps != 25 || stats.Steps != 25 {
		t.Fatalf("ran %d hook steps, stats counted %d, want 25", hookSteps, stats.Steps)
	}
	if !(stats.LastLoss < stats.FirstLoss) {
		t.Fatalf("Steps loss did not decrease: %v -> %v", stats.FirstLoss, stats.LastLoss)
	}
	if lastStats.BytesPushed <= 0 || stats.TotalBytesPushed <= 0 {
		t.Fatalf("push-byte metrics missing: step %d total %d", lastStats.BytesPushed, stats.TotalBytesPushed)
	}
	if lastStats.StepTime <= 0 || stats.TotalTime <= 0 {
		t.Fatalf("timing metrics missing: step %v total %v", lastStats.StepTime, stats.TotalTime)
	}
}

func TestStepsFeedsCustomInputs(t *testing.T) {
	// A dense-only graph without tokens/labels inputs: Steps must refuse
	// it with a helpful error, StepsFeeds must drive it.
	rng := NewRNG(8)
	g := NewGraph()
	x := g.Input("x", Float, 4, 6)
	labels := g.Input("y", Int, 4)
	w := g.Variable("w", rng.RandN(0.2, 6, 3))
	g.SoftmaxCE(g.MatMul(x, w), labels)
	sess := openAPI(t, g, Uniform(2, 1))
	ctx := context.Background()

	if _, err := takeSteps(sess.Steps(ctx, data.NewZipfText(10, 4, 1, 1.0, 3)), 1, nil); err == nil {
		t.Fatal("Steps on a graph without tokens/labels inputs must fail")
	}

	stats, err := takeSteps(sess.StepsFeeds(ctx, func(step, worker int) (Feed, error) {
		return Feed{
			Floats: map[string]*Dense{"x": rng.RandN(1, 4, 6)},
			Ints:   map[string][]int{"y": {0, 1, 2, 0}},
		}, nil
	}), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 5 {
		t.Fatalf("ran %d steps, want 5", stats.Steps)
	}

	// A transposed float feed has the right element count but the wrong
	// shape; it must be rejected before dispatch, not crash a worker.
	_, err = takeSteps(sess.StepsFeeds(ctx, func(step, worker int) (Feed, error) {
		return Feed{
			Floats: map[string]*Dense{"x": rng.RandN(1, 6, 4)},
			Ints:   map[string][]int{"y": {0, 1, 2, 0}},
		}, nil
	}), 1, nil)
	if err == nil {
		t.Fatal("transposed float feed must fail")
	}
}

func TestMeasureAlphaPublicAPI(t *testing.T) {
	a := MeasureAlpha(data.NewZipfText(500, 16, 4, 1.0, 9), 500, 5)
	if a <= 0 || a >= 1 {
		t.Fatalf("alpha = %v", a)
	}
}

// TestAutoPartitionOnlineSearch is the acceptance check of the online
// §3.2 search: on the hybrid LM example the tuning phase must settle
// within the paper's budget of 5 measurement runs, choose a P inside
// the sampled bracket, reshard the live runtime to it, and keep the
// training loop accounting intact (every step, tuning included, flows
// through hooks and stats).
func TestAutoPartitionOnlineSearch(t *testing.T) {
	const vocab, batch, steps = 600, 8, 30
	sess := openAPI(t, buildAPIModel(batch, vocab), Uniform(2, 2),
		WithAutoPartition(), WithAlphaHints(map[string]float64{"embedding": 0.05}))

	d := sess.PartitionDecision()
	if !d.Pending || d.Source != "online" {
		t.Fatalf("pre-loop decision = %+v, want pending online", d)
	}
	if sess.SparsePartitions() != 2 {
		t.Fatalf("initial P = %d, want the machine count", sess.SparsePartitions())
	}

	hookSteps := 0
	ctx := context.Background()
	stats, err := takeSteps(sess.Steps(ctx, data.NewZipfText(vocab, batch, 1, 1.0, 11)), steps, func(s StepStats) {
		if s.Step != hookSteps {
			t.Errorf("hook saw step %d, want %d", s.Step, hookSteps)
		}
		hookSteps++
	})
	if err != nil {
		t.Fatal(err)
	}
	if hookSteps != steps || stats.Steps != steps {
		t.Fatalf("ran %d hook steps, stats counted %d, want %d", hookSteps, stats.Steps, steps)
	}

	d = sess.PartitionDecision()
	if d.Pending || d.Source != "online" || d.Search == nil {
		t.Fatalf("post-loop decision = %+v, want settled online search", d)
	}
	if d.Search.Runs > 5 {
		t.Fatalf("online search used %d measurement runs, budget is 5", d.Search.Runs)
	}
	lo, hi := d.Search.Samples[0].P, d.Search.Samples[0].P
	for _, s := range d.Search.Samples {
		if s.P < lo {
			lo = s.P
		}
		if s.P > hi {
			hi = s.P
		}
	}
	if d.P < lo || d.P > hi {
		t.Fatalf("chosen P=%d outside the sampled bracket [%d,%d]", d.P, lo, hi)
	}
	if sess.SparsePartitions() != d.P {
		t.Fatalf("runtime at P=%d, decision says %d", sess.SparsePartitions(), d.P)
	}

	// A second loop must not re-run the tuning phase.
	if _, err := takeSteps(sess.Steps(ctx, data.NewZipfText(vocab, batch, 1, 1.0, 12)), 2, nil); err != nil {
		t.Fatal(err)
	}
	if sess.PartitionDecision().P != d.P {
		t.Fatal("second Steps loop re-tuned the partitioning")
	}
}

// TestPublicRepartitionLossless drives Session.Repartition directly: a
// run that reshards mid-training must keep a loss trajectory
// bit-identical to a session configured with the target P from the
// start (the transform-level tests pin the same property per-variable
// and over TCP; this covers the public wiring).
func TestPublicRepartitionLossless(t *testing.T) {
	const vocab, batch, steps, switchAt = 300, 8, 6, 3
	run := func(startP int, reshardTo int) []float64 {
		sess := openAPI(t, buildAPIModel(batch, vocab), Uniform(2, 2), WithSparsePartitions(startP))
		ctx := context.Background()
		ds := data.NewZipfText(vocab, batch, 1, 1.0, 13)
		var losses []float64
		hook := func(s StepStats) { losses = append(losses, s.Loss) }
		if _, err := takeSteps(sess.Steps(ctx, ds), switchAt, hook); err != nil {
			t.Fatal(err)
		}
		if reshardTo > 0 {
			if err := sess.Repartition(reshardTo); err != nil {
				t.Fatal(err)
			}
			if sess.SparsePartitions() != reshardTo {
				t.Fatalf("SparsePartitions() = %d after Repartition(%d)", sess.SparsePartitions(), reshardTo)
			}
		}
		if _, err := takeSteps(sess.Steps(ctx, ds), steps-switchAt, hook); err != nil {
			t.Fatal(err)
		}
		return losses
	}
	want := run(4, 0)
	got := run(2, 4)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d loss %v after reshard, want %v", i, got[i], want[i])
		}
	}
}

// TestShardMapAndDecisionReporting checks the live reporting surface:
// the shard map names every route with its partition→machine
// assignment, and Describe carries the partition decision.
func TestShardMapAndDecisionReporting(t *testing.T) {
	sess := openAPI(t, buildAPIModel(4, 50), Uniform(2, 1), WithSparsePartitions(3))
	sm := sess.ShardMap()
	for _, want := range []string{"embedding", "ps x3", "->m", "rows/server:", "proj", "replicated"} {
		if !strings.Contains(sm, want) {
			t.Errorf("shard map missing %q:\n%s", want, sm)
		}
	}
	if d := sess.Describe(); !strings.Contains(d, "partitions: 3 (fixed)") {
		t.Errorf("Describe missing partition decision:\n%s", d)
	}
	// After a live reshard the map must reflect the new partitioning.
	if err := sess.Repartition(2); err != nil {
		t.Fatal(err)
	}
	if sm := sess.ShardMap(); !strings.Contains(sm, "ps x2") {
		t.Errorf("shard map not updated after reshard:\n%s", sm)
	}
}

func TestConfigVariants(t *testing.T) {
	g := buildAPIModel(4, 40)
	for _, cfg := range []Config{
		{Arch: AllReduceOnly, SparsePartitions: 1},
		{Arch: PSOnly, SparsePartitions: 2},
		{Arch: OptimizedPS, SparsePartitions: 2},
		{Arch: Hybrid, SparsePartitions: 2, ClipNorm: 1.0},
		{Arch: PSOnly, SparsePartitions: 2, Async: true},
		{Arch: Hybrid, SparsePartitions: 2, DenseAgg: AggSum, SparseAgg: AggSum,
			NewOptimizer: func() Optimizer { return NewMomentum(0.01, 0.9) }},
	} {
		sess, err := Open(context.Background(), g, Uniform(2, 1), WithConfig(cfg))
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		feeds := make([]Feed, sess.Workers())
		for w := range feeds {
			feeds[w] = Feed{Ints: map[string][]int{
				"tokens": {1, 2, 3, 4}, "labels": {5, 6, 7, 8},
			}}
		}
		if _, err := sess.RunStep(feeds); err != nil {
			t.Fatalf("config %+v: step: %v", cfg, err)
		}
		sess.Close()
	}
}
