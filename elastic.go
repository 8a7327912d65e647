package parallax

// Elastic cluster membership (DESIGN.md §14). A cluster opened with
// WithElastic can change its machine set at a step boundary without a
// restart:
//
//   - Scale-out: a new agent starts with DistConfig.JoinTarget and sends
//     a join request to a running agent's listener. That agent parks the
//     request and, at its next step boundary, proposes admission through
//     the membership agreement round every elastic agent runs per step.
//     All survivors save at the boundary, adopt the agreed member list,
//     bump the fabric epoch, and re-rendezvous at the new world size;
//     the joiner pulls its share of the saved state off the shared
//     checkpoint root and enters the collective at the same boundary.
//   - Scale-in: an agent with a pending Leave (voluntary, or armed by a
//     chaos leave fault) proposes its own departure the same way; the
//     survivors reshard its parameter-server partitions onto themselves
//     and the leaver's Steps iterator ends with ErrLeft. A peer that
//     dies and stays dead is shed the same way when
//     RecoveryPolicy.AllowShrink is set — the shrink replaces the
//     in-place recovery that would otherwise wait out a restart.
//
// The agreement is one AgreeScalarMax-style fold per boundary: each
// agent contributes a proposal code (0 = nothing to propose) and the
// cluster-wide maximum elects a single winner; the winner's full member
// list travels out of band as a membership record it wrote to the
// checkpoint root *before* the round, so losing proposals leave no
// trace and every survivor reads exactly the elected list. Membership
// state machine helpers and codes live in membership.go.

import (
	"context"
	"fmt"
	"os"

	"parallax/internal/checkpoint"
	"parallax/internal/cluster"
	"parallax/internal/transport"
)

// memberRounds reports whether this session runs a membership agreement
// round at every step boundary. Deliberately not conditioned on the
// trainer being distributed: a cluster shrunk to one machine still
// proposes (the fold degenerates to its own value), which is how it can
// re-grow.
func (s *Session) memberRounds() bool {
	return s.cfg.Elastic && s.dist != nil && s.cfg.AutoCheckpoint.Dir != "" && !s.closed
}

// membership runs one membership round at the current step boundary:
// propose (or pass), fold, and — when a proposal wins — transition to
// the agreed topology. It returns true when the trainer was rebuilt at
// a new world size, in which case the driver must refresh its agreement
// flag and re-enter the boundary from the top.
func (d *stepDriver) membership() (bool, error) {
	s := d.s
	code, err := s.localProposal()
	if err != nil {
		return false, err
	}
	agreed, err := s.trainer.AgreeMembership(code)
	if err != nil {
		return false, err
	}
	if agreed == 0 {
		return false, nil
	}
	winner, kind, err := decodeProposal(agreed)
	if err != nil {
		return false, fmt.Errorf("parallax: membership agreement folded to %v: %w", agreed, err)
	}
	if err := s.transition(d.ctx, winner, kind); err != nil {
		return false, err
	}
	return true, nil
}

// localProposal decides what this agent contributes to the boundary's
// membership round and, when it has something to propose, durably
// publishes the proposed member list before returning its code — so the
// list is readable by every survivor the moment the proposal wins.
func (s *Session) localProposal() (float64, error) {
	root := s.cfg.AutoCheckpoint.Dir
	machine := s.dist.Machine
	if s.leaving.Load() {
		cur := s.currentMembers()
		if len(cur.Members) <= 1 {
			s.leaving.Store(false)
			return 0, fmt.Errorf("parallax: cannot leave a single-member cluster")
		}
		rec := &transport.Membership{
			Epoch: s.epoch + 1, Step: int64(s.trainer.StepCount()), Cursor: s.cursor,
			Parts: s.parts, Joiner: -1,
			Members: removeMember(cur.Members, machine),
		}
		if err := checkpoint.WriteMembershipRecord(root, machine, rec); err != nil {
			return 0, err
		}
		return proposalCode(machine, proposeLeave), nil
	}
	fab := s.tcpFabric()
	if fab == nil {
		return 0, nil
	}
	req := fab.PendingJoin()
	if req == nil {
		return 0, nil
	}
	cur := s.currentMembers()
	if cur.IndexOf(req.Addr) >= 0 {
		// Already a member — a stale rejoin attempt; the park will be
		// released when the fabric shuts down.
		return 0, nil
	}
	rec := &transport.Membership{
		Epoch: s.epoch + 1, Step: int64(s.trainer.StepCount()), Cursor: s.cursor,
		Parts: s.parts, Joiner: len(cur.Members),
		Members: admitMember(cur.Members, transport.Member{Addr: req.Addr, GPUs: req.GPUs}),
	}
	if err := checkpoint.WriteMembershipRecord(root, machine, rec); err != nil {
		return 0, err
	}
	return proposalCode(machine, proposeJoin), nil
}

// transition executes an agreed membership change at the current step
// boundary:
//
//  1. every agent saves the full state at the boundary (old topology);
//  2. a barrier round confirms every shard is durably on disk;
//  3. everyone reads the winner's published member list, records the
//     new epoch and membership in the root;
//  4. the winner (for a join) releases the parked joiner with the offer;
//  5. departing machines close and surface ErrLeft; survivors rebuild
//     at the new world size via rebuildAt.
func (s *Session) transition(ctx context.Context, winner, kind int) error {
	root := s.cfg.AutoCheckpoint.Dir
	step := s.trainer.StepCount()
	sdir := checkpoint.StepDir(root, step)
	if err := s.Save(sdir); err != nil {
		return err
	}
	if _, err := s.trainer.AgreeMembership(0); err != nil {
		return err
	}
	rec, err := checkpoint.ReadMembershipRecord(root, s.epoch+1, winner)
	if err != nil {
		return err
	}
	if rec.Step != int64(step) {
		return fmt.Errorf("parallax: membership record for epoch %d proposes step %d but the cluster is at step %d",
			s.epoch+1, rec.Step, step)
	}
	if err := checkpoint.WriteEpoch(root, s.epoch+1); err != nil {
		return err
	}
	if err := checkpoint.WriteMembers(root, rec); err != nil {
		return err
	}
	if kind == proposeJoin && winner == s.dist.Machine {
		// The epoch and membership are durable before the joiner is
		// released: whatever it reads from the root now is the new world.
		if fab := s.tcpFabric(); fab != nil {
			if err := fab.OfferJoin(rec); err != nil {
				return err
			}
		}
	}
	idx := rec.IndexOf(s.dist.Addrs[s.dist.Machine])
	if idx < 0 {
		// This machine left: its state is saved and the survivors own the
		// reshard from here. Terminal by design — not a failure.
		s.trainer.Close()
		s.closed = true
		return fmt.Errorf("parallax: %w at step %d (epoch %d)", ErrLeft, step, s.epoch+1)
	}
	return s.rebuildAt(ctx, sdir, rec, idx, s.epoch+1)
}

// rebuildAt tears down this agent's runtime and rebuilds it as machine
// idx of the agreed membership, restoring the boundary checkpoint in
// sdir through the resharding install. After the restore, every member
// re-saves sdir at the new topology (between two barrier rounds, so no
// agent reads shards mid-overwrite), making the directory a valid
// recovery fallback at the new machine count. The joiner runs the same
// post-restore schedule in joinCluster.
func (s *Session) rebuildAt(ctx context.Context, sdir string, mem *transport.Membership, idx, epoch int) error {
	meta, recs, err := checkpoint.ReadShard(sdir, 0)
	if err != nil {
		return err
	}
	s.trainer.Close()

	newRes := resourceFromMembers(mem)
	cfg := s.cfg
	dc := *s.cfg.Dist
	dc.Machine = idx
	dc.Addrs = mem.Addrs()
	dc.Listener = nil
	dc.JoinTarget, dc.JoinAddr = "", ""
	dc.DialTimeout = rendezvousWindow(s.cfg.Recovery.RedialTimeout)
	cfg.Dist = &dc
	ns, err := open(ctx, s.g, newRes, cfg, &restoreSpec{meta: meta}, s.chaos)
	if err != nil {
		return err
	}
	if err := elasticRestore(ns, sdir, meta, recs); err != nil {
		ns.Close()
		return err
	}
	if s.replay != nil {
		if err := s.replay.rewindTo(meta.Cursor); err != nil {
			ns.Close()
			return err
		}
	}
	s.adopt(ns)
	s.pendingSkip = 0
	s.cfg = cfg
	s.dist = &dc
	s.epoch = epoch
	if idx == 0 {
		// Machine 0 of the new world clears proposal debris from epochs
		// no survivor can need again; best-effort.
		_ = checkpoint.PruneMembershipRecords(s.cfg.AutoCheckpoint.Dir, epoch)
	}
	return nil
}

// elasticRestore is the collective schedule every member of a new
// topology runs after its rendezvous: install the boundary checkpoint,
// verify the restore step cluster-wide, barrier, re-save the directory
// at the new topology, barrier again. The two barriers bracket the
// overwrite so no member reads old-topology shards that a faster peer
// is already replacing.
func elasticRestore(ns *Session, sdir string, meta checkpoint.Meta, recs []checkpoint.Record) error {
	if err := ns.install(sdir, 0, meta, recs); err != nil {
		return err
	}
	if err := ns.verifyJoin(); err != nil {
		return err
	}
	if _, err := ns.trainer.AgreeMembership(0); err != nil {
		return err
	}
	if err := ns.Save(sdir); err != nil {
		return err
	}
	if _, err := ns.trainer.AgreeMembership(0); err != nil {
		return err
	}
	return nil
}

// joinCluster is Open's path for an agent started with
// DistConfig.JoinTarget: request admission from the running cluster,
// wait (parked) for the offer, then restore the boundary checkpoint and
// enter the collective as the newest member. The returned session's
// first Steps boundary runs the same agreement sequence the survivors
// re-enter after their rebuild, so the schedules align by construction.
func joinCluster(ctx context.Context, g *Graph, resource ResourceInfo, cfg Config) (*Session, error) {
	d := cfg.Dist
	if !cfg.Elastic {
		return nil, fmt.Errorf("parallax: DistConfig.JoinTarget requires WithElastic")
	}
	if d.JoinAddr == "" {
		return nil, fmt.Errorf("parallax: joining requires DistConfig.JoinAddr (the address this agent will serve on)")
	}
	if cfg.AutoCheckpoint.Dir == "" {
		return nil, fmt.Errorf("parallax: joining requires WithAutoCheckpoint on the cluster's shared root")
	}
	if err := resource.Validate(); err != nil {
		return nil, err
	}
	timeout := rendezvousWindow(d.DialTimeout)
	// The joiner contributes one machine: the first machine of the
	// resource info it was launched with describes its GPUs.
	offer, err := transport.RequestJoin(ctx, d.JoinTarget, transport.JoinRequest{
		Addr:        d.JoinAddr,
		GPUs:        resource.GPUsPerMachine(0),
		Fingerprint: cfg.Compression.Fingerprint(),
	}, timeout)
	if err != nil {
		return nil, err
	}
	if offer.Joiner < 0 || offer.Joiner >= len(offer.Members) ||
		offer.Members[offer.Joiner].Addr != d.JoinAddr {
		return nil, fmt.Errorf("parallax: admission offer does not list this agent at its joiner slot")
	}
	newRes := resourceFromMembers(offer)
	ndc := *d
	ndc.Machine = offer.Joiner
	ndc.Addrs = offer.Addrs()
	ndc.JoinTarget = ""
	ndc.DialTimeout = timeout
	cfg.Dist = &ndc
	root := cfg.AutoCheckpoint.Dir
	sdir := checkpoint.StepDir(root, int(offer.Step))
	// Shard 0 of the boundary save is the old topology's; the elastic
	// install reads every old shard, and the joiner (like the survivors)
	// only reads them before the post-rendezvous barriers allow anyone
	// to start the new-topology re-save.
	meta, recs, err := checkpoint.ReadShard(sdir, 0)
	if err != nil {
		return nil, err
	}
	ns, err := open(ctx, g, newRes, cfg, &restoreSpec{meta: meta}, nil)
	if err != nil {
		return nil, err
	}
	if err := elasticRestore(ns, sdir, meta, recs); err != nil {
		ns.Close()
		return nil, err
	}
	ns.armChaosElastic()
	return ns, nil
}

// adoptMembers rewrites a restarting agent's launch flags from the
// MEMBERS record in the checkpoint root: the cluster may have grown or
// shrunk around the restart, and the record — not the flags — is the
// authoritative membership. The agent finds itself by its own address;
// an address no longer listed means the cluster shed this machine.
func adoptMembers(cfg *Config, resource *ResourceInfo) error {
	d := cfg.Dist
	if d.Machine < 0 || d.Machine >= len(d.Addrs) {
		return fmt.Errorf("parallax: machine %d outside the %d-address list", d.Machine, len(d.Addrs))
	}
	m, err := checkpoint.ReadMembers(cfg.AutoCheckpoint.Dir)
	if err != nil {
		return err
	}
	if m == nil {
		return nil
	}
	self := d.Addrs[d.Machine]
	idx := m.IndexOf(self)
	if idx < 0 {
		return fmt.Errorf("parallax: %s is no longer a member of the elastic cluster (membership epoch %d); rejoin with DistConfig.JoinTarget",
			self, m.Epoch)
	}
	dc := *d
	dc.Machine = idx
	dc.Addrs = m.Addrs()
	cfg.Dist = &dc
	*resource = resourceFromMembers(m)
	return nil
}

// shrinkTarget reports whether err names a dead peer this agent should
// shed via an elastic shrink rather than wait out with an in-place
// recovery.
func (s *Session) shrinkTarget(cause error) (int, bool) {
	if !s.cfg.Elastic || !s.cfg.Recovery.AllowShrink || s.dist == nil {
		return 0, false
	}
	pf := peerFailureOf(cause)
	if pf == nil {
		return 0, false
	}
	n := s.resource.NumMachines()
	if pf.Rank < 0 || pf.Rank >= n || pf.Rank == s.dist.Machine || n < 2 {
		return 0, false
	}
	return pf.Rank, true
}

// shrinkRecover re-forms the cluster without the failed machine: every
// survivor independently derives the identical post-shrink membership
// (same failure attribution, same member list), records it, and
// rebuilds from the latest complete checkpoint at the reduced world
// size. Unlike the in-place path, the post-shrink loss trajectory
// necessarily diverges from the uninterrupted run — a machine's workers
// vanished — but replayed steps stay suppressed, so every step is still
// yielded exactly once.
func (s *Session) shrinkRecover(ctx context.Context, failed int) error {
	root := s.cfg.AutoCheckpoint.Dir
	oldN := s.resource.NumMachines()
	step, sdir, err := checkpoint.LatestComplete(root, oldN)
	if err != nil {
		return err
	}
	if step < 0 {
		return fmt.Errorf("parallax: no complete auto-checkpoint under %s to shrink from", root)
	}
	meta0, _, err := checkpoint.ReadShard(sdir, 0)
	if err != nil {
		return err
	}
	cur := s.currentMembers()
	rec := &transport.Membership{
		Epoch: s.epoch + 1, Step: meta0.Step, Cursor: meta0.Cursor,
		Parts: meta0.Parts, Joiner: -1,
		Members: removeMember(cur.Members, failed),
	}
	// Every survivor writes the same bytes; the atomic renames commute.
	if err := checkpoint.WriteEpoch(root, s.epoch+1); err != nil {
		return err
	}
	if err := checkpoint.WriteMembers(root, rec); err != nil {
		return err
	}
	idx := rec.IndexOf(s.dist.Addrs[s.dist.Machine])
	if idx < 0 {
		return fmt.Errorf("parallax: shrink membership dropped this machine")
	}
	if err := s.rebuildAt(ctx, sdir, rec, idx, s.epoch+1); err != nil {
		return err
	}
	s.recoveries++
	return nil
}

// currentMembers renders the session's live membership from its address
// list and resources.
func (s *Session) currentMembers() *transport.Membership {
	members := make([]transport.Member, len(s.dist.Addrs))
	for i := range members {
		members[i] = transport.Member{Addr: s.dist.Addrs[i], GPUs: s.resource.GPUsPerMachine(i)}
	}
	return &transport.Membership{
		Epoch: s.epoch, Step: int64(s.trainer.StepCount()), Cursor: s.cursor,
		Parts: s.parts, Joiner: -1, Members: members,
	}
}

// tcpFabric unwraps the trainer's fabric (through the chaos wrapper if
// armed) down to the TCP fabric with the elastic join endpoints; nil
// for in-process fabrics.
func (s *Session) tcpFabric() *transport.TCP {
	fab := s.trainer.Fabric()
	if u, ok := fab.(interface{ Unwrap() transport.Fabric }); ok {
		fab = u.Unwrap()
	}
	t, _ := fab.(*transport.TCP)
	return t
}

// resourceFromMembers derives the cluster resources a membership
// implies. Hosts are positional (m0, m1, ...) — matching Uniform's
// naming — because agreement and placement depend only on counts, and
// positional names keep the topology fingerprint a pure function of the
// member list on every agent.
func resourceFromMembers(m *transport.Membership) ResourceInfo {
	ms := make([]cluster.Machine, len(m.Members))
	for i, mem := range m.Members {
		gpus := make([]int, mem.GPUs)
		for j := range gpus {
			gpus[j] = j
		}
		ms[i] = cluster.Machine{Host: fmt.Sprintf("m%d", i), GPUs: gpus}
	}
	return ResourceInfo{Machines: ms}
}

// armChaosElastic wires the chaos injector's elastic hooks to this
// session; armed once on the long-lived outer session so the closures
// survive fabric rebuilds (the injector itself already does).
func (s *Session) armChaosElastic() {
	if s.chaos == nil || !s.cfg.Elastic {
		return
	}
	s.chaos.OnLeave = func(step, machine int) {
		if s.dist != nil && s.dist.Machine == machine {
			s.leaving.Store(true)
		}
	}
}

// Leave requests this agent's voluntary departure from its elastic
// cluster. The departure happens at the next step boundary: the
// survivors agree on a membership without this machine and reshard its
// parameter-server state, and this session's Steps iterator ends with
// an error wrapping ErrLeft. Safe to call from another goroutine.
func (s *Session) Leave() error {
	if s.closed {
		return fmt.Errorf("parallax: leave on %w session", ErrClosed)
	}
	if !s.memberRounds() {
		return fmt.Errorf("parallax: Leave requires WithElastic, WithDist, and WithAutoCheckpoint")
	}
	if len(s.dist.Addrs) < 2 {
		return fmt.Errorf("parallax: cannot leave a single-member cluster")
	}
	s.leaving.Store(true)
	return nil
}

// Resize reshards a single-process elastic session to a different
// machine set in place: the session saves its state, rebuilds the
// runtime at the new resources, and restores through the same
// resharding path distributed transitions use. Like Repartition, it
// must not run concurrently with the step drivers. Distributed clusters
// resize through JoinTarget and Leave instead.
func (s *Session) Resize(ctx context.Context, resource ResourceInfo) error {
	if s.closed {
		return fmt.Errorf("parallax: resize on %w session", ErrClosed)
	}
	if s.dist != nil {
		return fmt.Errorf("parallax: Resize is single-process only; distributed clusters grow with JoinTarget and shrink with Leave")
	}
	if !s.cfg.Elastic {
		return fmt.Errorf("parallax: Resize requires WithElastic")
	}
	if err := resource.Validate(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "parallax-resize-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := s.Save(dir); err != nil {
		return err
	}
	meta, recs, err := checkpoint.ReadShard(dir, 0)
	if err != nil {
		return err
	}
	s.trainer.Close()
	ns, err := open(ctx, s.g, resource, s.cfg, &restoreSpec{meta: meta}, s.chaos)
	if err != nil {
		s.closed = true
		return err
	}
	if err := ns.install(dir, 0, meta, recs); err != nil {
		ns.Close()
		s.closed = true
		return err
	}
	s.adopt(ns)
	return nil
}

// Members returns the agent addresses of the cluster this session is
// currently a member of (nil for single-process sessions). The slice is
// a copy.
func (s *Session) Members() []string {
	if s.dist == nil {
		return nil
	}
	return append([]string(nil), s.dist.Addrs...)
}
