package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// warmupSteps run before any timing, so lazily grown buffers and the
	// Go heap reach their steady size first.
	warmupSteps = 5
	// segments splits the timed training into equal parts. Between two
	// segments the run samples setup_s, save_s and restore_s, so those
	// medians draw on the whole run's time, not on one burst of it.
	segments = 30
	// boundaryBudget is what one boundary may spend per metric: at least
	// one sample, more while the budget lasts (a small state then still
	// yields many samples), at most maxPerBoundary.
	boundaryBudget = 100 * time.Millisecond
	maxPerBoundary = 30
	// checkPrefix is how many leading steps are compared against an
	// uninterrupted in-process run of the same job.
	checkPrefix = 64
)

// ops counts the run's operations — steps, opens, saves, restores,
// closes and checks — and the ones that failed.
type ops struct {
	attempted, failed int
	log               io.Writer
}

// do records n operations of one kind that succeed together or fail
// together with err.
func (o *ops) do(what string, n int, err error) error {
	o.attempted += n
	if err != nil {
		o.failed += n
		fmt.Fprintf(o.log, "FAILED %s: %v\n", what, err)
	}
	return err
}

// sample appends to dst the durations cycle(0), cycle(1), ... report,
// within one boundary's budget. Each cycle starts from a collected heap,
// so a collection the previous cycle's garbage owes does not land in it.
func sample(dst []float64, cycle func(c int) (time.Duration, error)) ([]float64, error) {
	start := time.Now()
	for c := 0; c < maxPerBoundary && (c == 0 || time.Since(start) < boundaryBudget); c++ {
		runtime.GC()
		d, err := cycle(c)
		if err != nil {
			return dst, err
		}
		dst = append(dst, d.Seconds())
	}
	return dst, nil
}

// e2e is the untraced run: every end-to-end metric of one workload.
//
// The training carries on through restores: at every boundary between
// two segments the session is saved, closed and reopened from the save,
// and the next segment trains the restored session. So every segment
// runs on freshly built runtime state, and the loss trajectory checked
// at the end passes through those restores.
func e2e(ctx context.Context, w workload, seed int64, seconds float64, scratch string, out io.Writer) (result, error) {
	o := &ops{log: out}
	j := newJob(w, seed)
	sess, err := j.open(ctx, "", -1)
	if o.do("open", 1, err) != nil {
		return result{}, err
	}
	defer func() {
		if sess != nil {
			j.close(sess, -1)
		}
	}()
	all, err := j.drive(ctx, sess, forSteps(warmupSteps), false, -1)
	if o.do("steps", warmupSteps, err) != nil {
		return result{}, err
	}

	saved := filepath.Join(scratch, "save")
	defer os.RemoveAll(saved)
	var setups, saves, restores []float64
	// boundary takes the save, restore and set-up samples between two
	// segments and leaves sess restored from the save.
	boundary := func() error {
		var err error
		saves, err = sample(saves, func(c int) (time.Duration, error) {
			dir := saved
			if c > 0 {
				dir = filepath.Join(scratch, "save-again")
				defer os.RemoveAll(dir)
			}
			start := time.Now()
			err := j.save(sess, dir, -1)
			return time.Since(start), o.do("save", 1, err)
		})
		if err != nil {
			return err
		}
		err = o.do("close", 1, j.close(sess, -1))
		sess = nil
		if err != nil {
			return err
		}
		restores, err = sample(restores, func(c int) (time.Duration, error) {
			start := time.Now()
			rs, err := j.open(ctx, saved, -1)
			if o.do("restore", 1, err) != nil {
				return 0, err
			}
			d := time.Since(start)
			if c == 0 {
				sess = rs
				return d, nil
			}
			return d, o.do("close", 1, j.close(rs, -1))
		})
		if err != nil {
			return err
		}
		// Set-up: open until the first step can run, then close.
		setups, err = sample(setups, func(int) (time.Duration, error) {
			start := time.Now()
			s, err := j.open(ctx, "", -1)
			if o.do("open", 1, err) != nil {
				return 0, err
			}
			d := time.Since(start)
			return d, o.do("close", 1, j.close(s, -1))
		})
		return err
	}

	// The first step of each segment is not timed: it pays for the
	// restored session's first pulls.
	segDur := time.Duration(seconds / segments * float64(time.Second))
	segLimit := func(n int, el time.Duration) bool { return n < 2 || el < segDur }
	var timed []stepRec
	// rates holds each segment's timed steps per second. Their median is
	// steps_per_s: a burst of host contention that slows a few segments
	// moves it less than it moves the overall mean.
	var rates []float64
	for k := 0; k < segments; k++ {
		runtime.GC()
		seg, err := j.drive(ctx, sess, segLimit, false, -1)
		if o.do("steps", max(len(seg), 1), err) != nil {
			return result{}, err
		}
		all = append(all, seg...)
		timed = append(timed, seg[1:]...)
		rates = append(rates, stepRate(seg[1:]))
		if k < segments-1 {
			if err := boundary(); err != nil {
				return result{}, err
			}
		}
	}
	err = o.do("close", 1, j.close(sess, -1))
	sess = nil
	if err != nil {
		return result{}, err
	}

	// Correctness gate: finite losses, and the restored chain — over TCP
	// for the TCP workloads — reproduces an uninterrupted in-process run.
	o.do("check losses finite", 1, finite(losses(all)))
	prefix := min(checkPrefix, len(all))
	ref, err := j.reference(ctx, prefix)
	if o.do("steps", prefix, err) == nil {
		o.do("check losses equal an uninterrupted in-process run's", 1,
			compareLosses("restored chain vs in-process run", losses(all[:prefix]), ref))
	}
	fmt.Fprintf(out, "prefix_final_loss_bits=%016x (step %d)\n", math.Float64bits(all[prefix-1].st.Loss), prefix-1)

	walls := make([]time.Duration, len(timed))
	for i, r := range timed {
		walls[i] = r.wall
	}
	stepMS := millis(walls)
	pct, tailMS, beyond := tail(stepMS)
	fmt.Fprintf(out, "steps=%d step_tail=p%g (%d samples beyond) samples: setup=%d save=%d restore=%d\n",
		len(timed), pct, beyond, len(setups), len(saves), len(restores))
	hwm, err := vmHWM()
	if err != nil {
		return result{}, err
	}
	m := metrics{}
	m.set("steps_per_s", median(rates), "1/s")
	m.set("step_p50_ms", median(stepMS), "ms")
	m.set("step_tail_ms", tailMS, "ms")
	m.set("setup_s", median(setups), "s")
	m.set("save_s", median(saves), "s")
	m.set("restore_s", median(restores), "s")
	m.set("rss_peak_mb", hwm, "MB")
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// vmHWM reads the process's peak resident set size in MB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
