package main

import (
	"fmt"
	"math"
	"sort"

	"parallax"
)

// workload is one named benchmark job: the model's shapes and the fabric
// between its agents. Every workload trains on the same 2 machines × 2
// GPUs uniform cluster with SGD and 8 sparse partitions, and the whole
// load comes from this one process.
type workload struct {
	name string
	// vocab is the embedding's row count, embed its width, hidden the
	// tanh layer's width and classes the softmax head's width.
	vocab, embed, hidden, classes int
	batch                         int // tokens per worker per step
	// nextToken labels each token with the token after it in the stream
	// (the language model); otherwise the label is token mod classes.
	nextToken bool
	// tcp runs the job as two Sessions (one per machine) over loopback
	// transport.TCP instead of one Session on the in-memory fabric.
	tcp bool
}

const (
	machines       = 2
	gpusPerMachine = 2
	workers        = machines * gpusPerMachine
	partitions     = 8
	learningRate   = 0.5
	zipfExponent   = 1.0
)

// workloads lists the benchmark's jobs; BENCHMARK.json records why each
// was chosen. lm-inproc and lm-tcp share the jobspec.Default model, so
// they differ only in the fabric.
var workloads = []workload{
	{name: "lm-inproc", vocab: 2000, embed: 32, hidden: 64, classes: 2000, batch: 32, nextToken: true},
	{name: "lm-tcp", vocab: 2000, embed: 32, hidden: 64, classes: 2000, batch: 32, nextToken: true, tcp: true},
	{name: "sparse-emb-tcp", vocab: 100000, embed: 64, hidden: 64, classes: 32, batch: 256, tcp: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// agents is the number of Sessions the workload runs.
func (w workload) agents() int {
	if w.tcp {
		return machines
	}
	return 1
}

// graph builds the workload's single-GPU graph with every initializer
// drawn from seed: a partitioned sparse embedding, a tanh hidden layer
// and a softmax cross-entropy head — the shape of jobspec's LM.
func (w workload) graph(seed int64) *parallax.Graph {
	rng := parallax.NewRNG(seed)
	g := parallax.NewGraph()
	tokens := g.Input("tokens", parallax.Int, w.batch)
	labels := g.Input("labels", parallax.Int, w.batch)
	var emb *parallax.Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, w.vocab, w.embed))
	})
	w1 := g.Variable("hidden/kernel", rng.RandN(0.1, w.embed, w.hidden))
	b1 := g.Variable("hidden/bias", parallax.NewDense(w.hidden))
	w2 := g.Variable("softmax/kernel", rng.RandN(0.1, w.hidden, w.classes))
	h := g.Tanh(g.AddBias(g.MatMul(g.Gather(emb, tokens), w1), b1))
	g.SoftmaxCE(g.MatMul(h, w2), labels)
	return g
}

// options are the session options every workload's agents share.
func (w workload) options() []parallax.Option {
	return []parallax.Option{
		parallax.WithArch(parallax.Hybrid),
		parallax.WithOptimizer(func() parallax.Optimizer { return parallax.NewSGD(learningRate) }),
		parallax.WithSparsePartitions(partitions),
	}
}

// feeder generates every worker's batch as a pure function of (seed,
// step, worker), so any number of agents — and any restored session —
// draw identical feeds without sharing a cursor. Tokens follow a
// Zipf(zipfExponent) law over the vocabulary, token 0 the most frequent.
type feeder struct {
	seed uint64
	cdf  []float64
	w    workload
}

func newFeeder(w workload, seed int64) *feeder {
	cdf := make([]float64, w.vocab)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -zipfExponent)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	cdf[len(cdf)-1] = 1
	// The data stream's seed is kept distinct from the initializers'.
	return &feeder{seed: mix64(uint64(seed) ^ 0x5eed_da7a), cdf: cdf, w: w}
}

// tokens returns worker's tokens for step and their labels.
func (f *feeder) tokens(step, worker int) (tokens, labels []int) {
	rng := splitmix(mix64(f.seed^uint64(step)) ^ uint64(worker))
	n := f.w.batch
	if f.w.nextToken {
		n++
	}
	stream := make([]int, n)
	for i := range stream {
		stream[i] = sort.SearchFloat64s(f.cdf, rng.float64())
	}
	if f.w.nextToken {
		return stream[:f.w.batch], stream[1:]
	}
	labels = make([]int, f.w.batch)
	for i, t := range stream {
		labels[i] = t % f.w.classes
	}
	return stream, labels
}

// feed is the StepsFeeds callback.
func (f *feeder) feed(step, worker int) (parallax.Feed, error) {
	tokens, labels := f.tokens(step, worker)
	return parallax.Feed{Ints: map[string][]int{"tokens": tokens, "labels": labels}}, nil
}

// splitmix is the SplitMix64 generator: tiny state, so a fresh one per
// (step, worker) costs nothing.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix64(uint64(*s))
}

// float64 returns a uniform value in [0, 1).
func (s *splitmix) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// mix64 is SplitMix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
