package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"path/filepath"
	"slices"
	"time"

	"parallax/internal/graph"
)

// pullRowSteps is how many trainer steps the pull-row replay counts.
const pullRowSteps = 8

// traced is the traced run: spans around every parallax call and every
// layer replay, and the per-layer metrics taken from them. The training
// phase runs half its time untraced and half with a span per step, so
// the ratio of their step rates is the tracing overhead.
func traced(ctx context.Context, w workload, seed int64, seconds float64, dir, scratch string, out io.Writer) (result, error) {
	o := &ops{log: out}
	tr := newTracer()
	root := tr.begin("run", -1)
	j := newJob(w, seed)
	j.tr = tr
	m := metrics{}

	sess, err := j.open(ctx, "", root)
	if o.do("open", 1, err) != nil {
		return result{}, err
	}
	half := time.Duration(seconds / 2 * float64(time.Second))
	warm, err := j.drive(ctx, sess, forSteps(warmupSteps), false, root)
	if o.do("steps", warmupSteps, err) != nil {
		j.close(sess, root)
		return result{}, err
	}
	plain, err := j.drive(ctx, sess, forTime(half), false, root)
	if o.do("steps", max(len(plain), 1), err) != nil {
		j.close(sess, root)
		return result{}, err
	}
	spanned, err := j.drive(ctx, sess, forTime(half), true, root)
	if o.do("steps", max(len(spanned), 1), err) != nil {
		j.close(sess, root)
		return result{}, err
	}
	saved := filepath.Join(dir, "save")
	err = j.save(sess, saved, root)
	o.do("save", 1, err)
	o.do("close", 1, j.close(sess, root))
	if err != nil {
		return result{}, err
	}
	all := append(append(warm, plain...), spanned...)
	o.do("check losses finite", 1, finite(losses(all)))

	m.set("trace.steps_per_s_ratio", stepRate(spanned)/stepRate(plain), "ratio")
	var walls, compute, comm, wait, pushed []float64
	var wire, pushedSum float64
	for _, r := range spanned {
		walls = append(walls, ms(r.wall))
		compute = append(compute, ms(r.st.ComputeTime))
		comm = append(comm, ms(r.st.CommTime))
		wait = append(wait, ms(r.st.SyncWait))
		pushed = append(pushed, float64(r.pushed))
		wire += float64(r.wireSent)
		pushedSum += float64(r.pushed)
	}
	n := float64(len(spanned))
	m.set("parallax.step_ms", median(walls), "ms")
	m.set("transform.compute_ms", median(compute), "ms")
	m.set("transform.comm_ms", median(comm), "ms")
	m.set("transform.syncwait_ms", median(wait), "ms")
	m.set("transform.bytes_pushed_per_step", median(pushed), "B")
	m.set("transport.wire_mb_per_step", wire/n/1e6, "MB")
	m.set("transport.pushed_mb_per_step", pushedSum/n/1e6, "MB")
	m.set("transport.wire_to_pushed_ratio", wire/pushedSum, "ratio")
	spans := tr.snapshot()
	m.set("parallax.open_ms", spanMedian(spans, "parallax.Open"), "ms")
	m.set("parallax.save_ms", spanMedian(spans, "parallax.Save"), "ms")
	m.set("parallax.close_ms", spanMedian(spans, "parallax.Close"), "ms")

	// Layer replays on the workload's own shapes and inputs.
	f0, _ := j.feeds.feed(0, 0)
	ex, err := graph.NewExec(j.graphs[0])
	if err != nil {
		return result{}, err
	}
	_, grads, err := ex.Step(f0)
	if err != nil {
		return result{}, err
	}
	env := &layerEnv{w: w, g: j.graphs[0], feeds: j.feeds, grads: grads, m: m}
	layer := func(name string, fn func(r *replay) error) {
		id := tr.begin("layer."+name, root)
		defer tr.end(id)
		o.do("replay "+name, 1, fn(&replay{tr: tr, parent: id}))
	}
	layer("tensor", func(r *replay) error { env.tensorLayer(r); return nil })
	layer("graph", env.graphLayer)
	layer("optim", func(r *replay) error { env.optimLayer(r); return nil })
	layer("collective", func(r *replay) error { return env.collectiveLayer(ctx, r) })
	layer("psrt", func(r *replay) error { return env.psrtLayer(ctx, r) })
	layer("transport", env.transportLayer)
	layer("checkpoint", func(r *replay) error { return env.checkpointLayer(r, saved, dir) })
	layer("transform", func(r *replay) error {
		graphs := j.graphs
		if len(graphs) < machines {
			graphs = append(graphs, w.graph(seed))
		}
		gathered, pulled, err := env.pullRowsLayer(ctx, r, graphs, pullRowSteps)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pull rows: %d gathered from remote partitions, %d pulled over the wire, %d steps\n",
			gathered, pulled, pullRowSteps)
		m.set("psrt.rows_gathered_per_step", float64(gathered)/pullRowSteps, "count")
		m.set("psrt.rows_pulled_per_step", float64(pulled)/pullRowSteps, "count")
		m.set("psrt.pull_row_useful_ratio", float64(gathered)/float64(pulled), "ratio")
		return nil
	})
	tr.end(root)

	spans = tr.snapshot()
	fmt.Fprintf(out, "wire %.3f MB/step against %.3f MB/step pushed; tracing overhead: traced %.2f steps/s, untraced %.2f\n",
		wire/n/1e6, pushedSum/n/1e6, stepRate(spanned), stepRate(plain))
	summary(out, spans)
	path := filepath.Join(scratch, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, "spans written to", path)
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// stepRate is steps per second over a drive's wall time.
func stepRate(recs []stepRec) float64 {
	var el time.Duration
	for _, r := range recs {
		el += r.wall
	}
	return float64(len(recs)) / el.Seconds()
}

// spanMedian is the median duration in ms of the spans with name.
func spanMedian(spans []span, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, ms(s.End-s.Start))
		}
	}
	return median(ds)
}

func sortedKeys(m metrics) []string { return slices.Sorted(maps.Keys(m)) }
