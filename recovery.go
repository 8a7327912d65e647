package parallax

// Failure recovery (DESIGN.md §12). A distributed session configured
// with WithAutoCheckpoint + WithRecovery survives a peer agent's death:
//
//  1. Detection — the TCP fabric's heartbeats and read deadlines turn a
//     dead peer into a rank-attributed ErrPeerFailed on every survivor
//     within the heartbeat window; the trainer converts the torn fabric
//     into a step error carrying that attribution.
//  2. Recovery — each survivor tears down its dead runtime, bumps the
//     fabric epoch recorded in the auto-checkpoint root, re-dials its
//     peers at the new epoch (waiting out the failed agent's restart),
//     restores the latest complete auto-checkpoint, and verifies
//     cluster-wide agreement on the restore step through the scalar
//     agreement collective. The Steps iterator then continues: steps
//     between the restore point and the failure replay from the feed
//     log with their emissions suppressed, so the caller sees every
//     step exactly once and the loss trajectory is bit-identical to an
//     uninterrupted run.
//  3. The failed agent rejoins by plain restart: Open with the same
//     AutoCheckpoint directory reads the new epoch and the same
//     checkpoint, and the rendezvous completes once all peers arrive.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parallax/internal/chaos"
	"parallax/internal/checkpoint"
	"parallax/internal/data"
	"parallax/internal/transport"
)

// feedLog buffers the batches the step driver has drawn since the
// oldest auto-checkpoint a recovery might restore, so a survivor can
// replay the exact feeds of the steps it re-runs. The forward-only
// Resumable contract makes re-reading the dataset impossible; the log
// is the rewind. It is trimmed after every auto-save to the
// second-most-recent save's cursor — the restore point falls back to
// the previous checkpoint when a peer died mid-save, so that save's
// feeds must stay replayable.
type feedLog struct {
	base    int64 // dataset cursor of entries[0]
	pos     int   // next index to serve; == len(entries) means live
	entries []data.Batch
	saves   []int64 // cursors of the two most recent auto-saves
}

// next serves the replayed batch when rewound, otherwise draws live
// from ds and records the batch for future replays.
func (l *feedLog) next(ds Dataset) data.Batch {
	if l.pos < len(l.entries) {
		b := l.entries[l.pos]
		l.pos++
		return b
	}
	b := ds.Next()
	l.entries = append(l.entries, b)
	l.pos++
	return b
}

// noteSave records an auto-save at the given cursor and trims entries
// no recovery can need anymore.
func (l *feedLog) noteSave(cursor int64) {
	l.saves = append(l.saves, cursor)
	if len(l.saves) > 2 {
		l.saves = l.saves[len(l.saves)-2:]
	}
	if drop := l.saves[0] - l.base; drop > 0 {
		n := int(drop)
		if n > l.pos {
			n = l.pos
		}
		l.entries = append(l.entries[:0], l.entries[n:]...)
		l.base += int64(n)
		l.pos -= n
	}
}

// rewindTo repositions the log at the given dataset cursor.
func (l *feedLog) rewindTo(cursor int64) error {
	if cursor < l.base || cursor > l.base+int64(len(l.entries)) {
		return fmt.Errorf("parallax: restore cursor %d outside the replay window [%d, %d]",
			cursor, l.base, l.base+int64(len(l.entries)))
	}
	l.pos = int(cursor - l.base)
	return nil
}

// checkpointHooks are the fault-injection points around an
// auto-checkpoint write (crash-before-save / crash-after-save faults).
type checkpointHooks interface {
	BeforeSave(step int)
	AfterSave(step int)
}

// dialFabric establishes this agent's TCP fabric at the current fabric
// epoch. The epoch is read from the auto-checkpoint root (absent file =
// epoch 0); on ErrEpochMismatch — this agent raced a survivor's epoch
// bump — it re-reads and retries until the rendezvous deadline. The
// injector, when armed, wraps the fabric with the chaos harness.
func dialFabric(ctx context.Context, resource ResourceInfo, cfg Config, inj *chaos.Injector) (transport.Fabric, error) {
	d := cfg.Dist
	timeout := d.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	listener := d.Listener
	for {
		epoch := 0
		if cfg.AutoCheckpoint.Dir != "" {
			var err error
			if epoch, err = checkpoint.ReadEpoch(cfg.AutoCheckpoint.Dir); err != nil {
				return nil, err
			}
		}
		fab, err := transport.DialTCP(ctx, transport.TCPConfig{
			Topo: transport.Topology{
				Workers:         resource.TotalGPUs(),
				Machines:        resource.NumMachines(),
				MachineOfWorker: resource.WorkerMachines(),
			},
			Process:     d.Machine,
			Addrs:       d.Addrs,
			Listener:    listener,
			DialTimeout: time.Until(deadline),
			Policy:      cfg.Compression,
			Epoch:       epoch,
			Elastic:     cfg.Elastic,
		})
		if err == nil {
			if inj != nil {
				return inj.Wrap(fab), nil
			}
			return fab, nil
		}
		if !errors.Is(err, ErrEpochMismatch) || time.Now().After(deadline) || ctx.Err() != nil {
			return nil, err
		}
		// The fabric consumed (and closed) the listener; retries rebind
		// from the address list.
		listener = nil
		time.Sleep(250 * time.Millisecond)
	}
}

// verifyJoin runs one scalar agreement right after a recovery-enabled
// distributed session joins its fabric epoch: every agent proposes its
// restored step count and checks the cluster maximum equals it. An
// agent that restored an older checkpoint than its peers fails here
// (and its failure propagates to the rest), instead of silently
// diverging. Every agent under the same configuration performs exactly
// one verifyJoin per fabric generation, keeping the collective schedule
// aligned.
func (s *Session) verifyJoin() error {
	if s.dist == nil || !s.cfg.Recovery.Enabled || s.cfg.AutoCheckpoint.Dir == "" {
		return nil
	}
	step := s.trainer.StepCount()
	agreed, err := s.trainer.AgreeScalarMax(float64(step))
	if err != nil {
		return err
	}
	if int(agreed) != step {
		return fmt.Errorf("parallax: %w: this agent restored step %d but a peer is at step %d",
			ErrTopologyMismatch, step, int(agreed))
	}
	return nil
}

// autoEvery returns the auto-checkpoint cadence, 0 when disabled.
func (s *Session) autoEvery() int {
	if s.cfg.AutoCheckpoint.Dir == "" {
		return 0
	}
	if s.cfg.AutoCheckpoint.EveryN <= 0 {
		return 10
	}
	return s.cfg.AutoCheckpoint.EveryN
}

// maybeAutoSave writes the periodic checkpoint when the step count
// crosses the cadence. The schedule is a pure function of the step
// count, so every agent saves between the same steps without
// coordination — and a replayed step after a recovery re-saves the
// identical bytes over the identical directory.
func (s *Session) maybeAutoSave() error {
	every := s.autoEvery()
	step := s.trainer.StepCount()
	if every == 0 || step == 0 || step%every != 0 {
		return nil
	}
	root := s.cfg.AutoCheckpoint.Dir
	dir := checkpoint.StepDir(root, step)
	if s.saveHook != nil {
		s.saveHook.BeforeSave(step)
	}
	if err := s.Save(dir); err != nil {
		return fmt.Errorf("parallax: auto-checkpoint at step %d: %w", step, err)
	}
	if s.saveHook != nil {
		s.saveHook.AfterSave(step)
	}
	// One agent prunes (machine 0's host — always present); racing
	// removals from every agent would trip over each other's partial
	// deletes on a shared filesystem.
	for _, m := range s.trainer.LocalMachines() {
		if m == 0 {
			keep := s.cfg.AutoCheckpoint.Keep
			if keep <= 0 {
				keep = 3
			}
			if err := checkpoint.PruneAuto(root, s.resource.NumMachines(), keep); err != nil {
				return err
			}
			break
		}
	}
	if s.replay != nil {
		s.replay.noteSave(s.cursor)
	}
	return nil
}

// recoverable reports whether the driver should attempt in-place
// recovery for err rather than surfacing it.
func (d *stepDriver) recoverable(err error) bool {
	s := d.s
	if !errors.Is(err, ErrPeerFailed) {
		return false
	}
	if s.dist == nil || !s.cfg.Recovery.Enabled || s.cfg.AutoCheckpoint.Dir == "" {
		return false
	}
	// Recovery rewinds the step counter and replays from the feed log.
	if s.replay == nil {
		return false
	}
	// Under an elastic shrink policy a self-attributed failure is
	// terminal: the survivors will re-form without this machine, so
	// recovering in place would redial a cluster that no longer lists
	// it. Without AllowShrink the peers wait, and the in-place path
	// (kill + instant restart) still applies.
	if s.cfg.Elastic && s.cfg.Recovery.AllowShrink {
		if pf := peerFailureOf(err); pf != nil && pf.Rank == s.dist.Machine {
			return false
		}
	}
	max := s.cfg.Recovery.MaxRecoveries
	if max <= 0 {
		max = 3
	}
	return s.recoveries < max
}

// recover performs one in-place recovery; on success the driver
// continues its loop (replaying suppressed steps up to the failure
// point), on failure the combined error is surfaced.
func (d *stepDriver) recover(cause error) error {
	s := d.s
	start := time.Now()
	if failed, ok := s.shrinkTarget(cause); ok {
		// Elastic shrink (elastic.go): shed the dead machine instead of
		// waiting out its restart. The world size changes, so the
		// driver's agreement flag must track the rebuilt trainer.
		if err := s.shrinkRecover(d.ctx, failed); err != nil {
			return fmt.Errorf("parallax: elastic shrink after peer failure gave up: %v (original failure: %w)", err, cause)
		}
		d.agree = s.trainer.Distributed()
		s.lastRecovery = time.Since(start)
		return nil
	}
	if err := s.recoverInPlace(d.ctx); err != nil {
		return fmt.Errorf("parallax: recovery from peer failure gave up: %v (original failure: %w)", err, cause)
	}
	s.lastRecovery = time.Since(start)
	return nil
}

// recoverInPlace rebuilds this agent's runtime at the next fabric epoch
// and restores the latest complete auto-checkpoint; see the file
// comment for the protocol.
func (s *Session) recoverInPlace(ctx context.Context) error {
	root := s.cfg.AutoCheckpoint.Dir
	machines := s.resource.NumMachines()
	step, sdir, err := checkpoint.LatestComplete(root, machines)
	if err != nil {
		return err
	}
	if step < 0 {
		return fmt.Errorf("parallax: no complete auto-checkpoint under %s to recover from", root)
	}
	// Tear the dead runtime down first: the fabric is already closed
	// (the failure did that), but the worker/server goroutines and the
	// listener port must be gone before the re-rendezvous.
	s.trainer.Close()

	epoch := s.epoch + 1
	if err := checkpoint.WriteEpoch(root, epoch); err != nil {
		return err
	}
	machine := s.dist.Machine
	meta, recs, err := checkpoint.ReadShard(sdir, machine)
	if err != nil {
		return err
	}
	// Rebuild through the normal restore path, with a rendezvous window
	// wide enough for the failed agent's supervisor to restart it. The
	// listener (if any) died with the old fabric; rebind from Addrs.
	cfg := s.cfg
	dc := *s.cfg.Dist
	dc.Listener = nil
	dc.DialTimeout = rendezvousWindow(s.cfg.Recovery.RedialTimeout)
	cfg.Dist = &dc
	ns, err := open(ctx, s.g, s.resource, cfg, &restoreSpec{meta: meta}, s.chaos)
	if err != nil {
		return err
	}
	if err := ns.install(sdir, machine, meta, recs); err != nil {
		ns.Close()
		return err
	}
	if err := ns.verifyJoin(); err != nil {
		ns.Close()
		return err
	}
	// Adopt the rebuilt runtime and rewind the feed log to the restore
	// point; the driver replays the steps in between with their
	// emissions suppressed. The live dataset keeps its position — the
	// replayed feeds come from the log, not from FastForward.
	if err := s.replay.rewindTo(meta.Cursor); err != nil {
		ns.Close()
		return err
	}
	s.adopt(ns)
	s.pendingSkip = 0
	s.epoch = epoch
	s.recoveries++
	return nil
}

// adopt takes over a rebuilt session's runtime: its trainer, plan,
// partition decision, world size, and restored dataset cursor. The
// caller has already closed the runtime being replaced.
func (s *Session) adopt(ns *Session) {
	s.trainer, s.plan, s.parts = ns.trainer, ns.plan, ns.parts
	s.decision, s.tunePending, s.saveHook = ns.decision, ns.tunePending, ns.saveHook
	s.resource, s.workers, s.feeds = ns.resource, ns.workers, ns.feeds
	s.cursor = ns.cursor
}

// rendezvousWindow is the re-rendezvous deadline of a fabric rebuild or
// join: the configured timeout, or two minutes — long enough for a
// supervisor to restart a dead agent — when it is unset.
func rendezvousWindow(d time.Duration) time.Duration {
	if d <= 0 {
		return 2 * time.Minute
	}
	return d
}

// Epoch returns the fabric generation the session is currently running
// at: 0 until a failure recovery, +1 per re-rendezvous.
func (s *Session) Epoch() int { return s.epoch }

// Recoveries returns how many in-place failure recoveries this session
// has performed.
func (s *Session) Recoveries() int { return s.recoveries }

// LastRecoveryDuration returns the wall-clock cost of the most recent
// in-place recovery (teardown through re-rendezvous, restore, and
// verification), or 0 if none happened.
func (s *Session) LastRecoveryDuration() time.Duration { return s.lastRecovery }
