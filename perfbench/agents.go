package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"parallax"
)

// job is a workload built for one seed: a graph per agent (read-only
// after construction, so every open of the run reuses them) and the feed
// generator. The TCP workloads run both agents concurrently in this
// process, as real agents would run in theirs.
type job struct {
	w      workload
	seed   int64
	graphs []*parallax.Graph
	feeds  *feeder
	tr     *tracer // nil in untraced runs
}

func newJob(w workload, seed int64) *job {
	j := &job{w: w, seed: seed, feeds: newFeeder(w, seed)}
	for a := 0; a < w.agents(); a++ {
		j.graphs = append(j.graphs, w.graph(seed))
	}
	return j
}

// closeLimit is how long a Close may take before it counts as failed: a
// clean teardown takes milliseconds, while one that fell onto the
// trainer's 30 s close-barrier timer means an agent left the collective.
const closeLimit = 10 * time.Second

// forAgents runs fn for agents 0..n-1 concurrently and joins their
// errors.
func forAgents(n int, fn func(a int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for a := 0; a < n; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[a] = fn(a)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// span opens a traced span around a call, or does nothing untraced.
func (j *job) span(name string, parent int) func() {
	if j.tr == nil {
		return func() {}
	}
	id := j.tr.begin(name, parent)
	return func() { j.tr.end(id) }
}

// open opens every agent of the workload — from the checkpoint in
// restoreDir when it is not empty — and returns once all of them can
// step. A TCP pair gets fresh 127.0.0.1:0 listeners each time, so
// repeated cycles never collide on ports.
func (j *job) open(ctx context.Context, restoreDir string, parent int) ([]*parallax.Session, error) {
	n := j.w.agents()
	var lns []net.Listener
	var addrs []string
	if j.w.tcp {
		for a := 0; a < n; a++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns {
					l.Close()
				}
				return nil, err
			}
			lns = append(lns, ln)
			addrs = append(addrs, ln.Addr().String())
		}
	}
	res := parallax.Uniform(machines, gpusPerMachine)
	sess := make([]*parallax.Session, n)
	err := forAgents(n, func(a int) error {
		opts := j.w.options()
		if j.w.tcp {
			opts = append(opts, parallax.WithDistConfig(parallax.DistConfig{
				Machine: a, Addrs: addrs, Listener: lns[a], DialTimeout: 20 * time.Second,
			}))
		}
		var err error
		if restoreDir == "" {
			defer j.span("parallax.Open", parent)()
			sess[a], err = parallax.Open(ctx, j.graphs[a], res, opts...)
		} else {
			defer j.span("parallax.OpenFromCheckpoint", parent)()
			sess[a], err = parallax.OpenFromCheckpoint(ctx, restoreDir, j.graphs[a], res, opts...)
		}
		return err
	})
	if err != nil {
		j.close(sess, parent)
		return nil, fmt.Errorf("open: %w", err)
	}
	return sess, nil
}

// close closes every agent concurrently and reports an error when the
// teardown took longer than closeLimit.
func (j *job) close(sess []*parallax.Session, parent int) error {
	start := time.Now()
	err := forAgents(len(sess), func(a int) error {
		if sess[a] == nil {
			return nil
		}
		defer j.span("parallax.Close", parent)()
		return sess[a].Close()
	})
	if d := time.Since(start); err == nil && d > closeLimit {
		err = fmt.Errorf("close took %v (close-barrier timeout)", d.Round(time.Millisecond))
	}
	return err
}

// save runs Session.Save on every agent concurrently.
func (j *job) save(sess []*parallax.Session, dir string, parent int) error {
	return forAgents(len(sess), func(a int) error {
		defer j.span("parallax.Save", parent)()
		return sess[a].Save(dir)
	})
}

// stepRec is one step as the benchmark saw it.
type stepRec struct {
	st parallax.StepStats // agent 0's
	// wall is the time between this iteration's yield and the previous
	// one on agent 0 (the first step of a drive counts from its start):
	// the step plus the driver's agreement rounds and feed generation.
	wall time.Duration
	// wireSent and pushed sum WireSentBytes and BytesPushed over the
	// agents.
	wireSent, pushed int64
}

// drive runs every agent's StepsFeeds loop concurrently until more(n,
// elapsed) — asked on agent 0 after its n-th step of this drive — says
// to stop. Agent 0 then breaks out and the per-step agreement ends the
// other agents' loops at the same boundary. stepSpans records a span per
// agent per step. It fails on any step error, on agents that ran
// different step counts, and on agents that disagree on a loss's bits.
func (j *job) drive(ctx context.Context, sess []*parallax.Session, more func(n int, elapsed time.Duration) bool, stepSpans bool, parent int) ([]stepRec, error) {
	per := make([][]parallax.StepStats, len(sess))
	var walls []time.Duration
	err := forAgents(len(sess), func(a int) error {
		start := time.Now()
		prev := start
		var id int
		if stepSpans {
			id = j.tr.begin("parallax.Step", parent)
		}
		for st, err := range sess[a].StepsFeeds(ctx, j.feeds.feed) {
			if err != nil {
				if stepSpans {
					j.tr.end(id)
				}
				if a > 0 && errors.Is(err, context.Canceled) && ctx.Err() == nil {
					return nil // agent 0 ended the loop
				}
				return fmt.Errorf("agent %d step: %w", a, err)
			}
			now := time.Now()
			if stepSpans {
				j.tr.end(id)
				id = j.tr.begin("parallax.Step", parent)
			}
			per[a] = append(per[a], st)
			if a == 0 {
				walls = append(walls, now.Sub(prev))
				prev = now
				if !more(len(per[0]), now.Sub(start)) {
					if stepSpans {
						j.tr.end(id)
					}
					return nil
				}
			}
		}
		if stepSpans {
			j.tr.end(id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	recs := make([]stepRec, len(per[0]))
	for i, st := range per[0] {
		recs[i] = stepRec{st: st, wall: walls[i], wireSent: st.WireSentBytes, pushed: st.BytesPushed}
	}
	for a := 1; a < len(per); a++ {
		if len(per[a]) != len(recs) {
			return nil, fmt.Errorf("agent %d ran %d steps, agent 0 ran %d", a, len(per[a]), len(recs))
		}
		for i, st := range per[a] {
			if math.Float64bits(st.Loss) != math.Float64bits(recs[i].st.Loss) {
				return nil, fmt.Errorf("step %d: agent %d loss %x, agent 0 %x",
					st.Step, a, math.Float64bits(st.Loss), math.Float64bits(recs[i].st.Loss))
			}
			recs[i].wireSent += st.WireSentBytes
			recs[i].pushed += st.BytesPushed
		}
	}
	return recs, nil
}

// forSteps is a drive limit: stop after n steps.
func forSteps(n int) func(int, time.Duration) bool {
	return func(k int, _ time.Duration) bool { return k < n }
}

// forTime is a drive limit: stop once d has elapsed.
func forTime(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, el time.Duration) bool { return el < d }
}

// reference runs the workload's job in-process (one Session on the
// in-memory fabric, graph from the same seed) for n steps and returns
// its per-step losses without any save or restore: the oracle every
// run's losses must equal bit for bit.
func (j *job) reference(ctx context.Context, n int) ([]float64, error) {
	ref := &job{w: j.w, seed: j.seed, graphs: j.graphs[:1], feeds: j.feeds}
	ref.w.tcp = false
	sess, err := ref.open(ctx, "", -1)
	if err != nil {
		return nil, err
	}
	recs, err := ref.drive(ctx, sess, forSteps(n), false, -1)
	if cerr := ref.close(sess, -1); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return losses(recs), nil
}

func losses(recs []stepRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.st.Loss
	}
	return out
}

// compareLosses checks got against want bit for bit, step by step.
func compareLosses(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d losses, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: loss %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

// finite checks every loss is a finite number.
func finite(ls []float64) error {
	for i, l := range ls {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("loss %d is %v", i, l)
		}
	}
	return nil
}
