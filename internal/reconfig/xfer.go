package reconfig

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/types"
)

// The snapshot pipeline. The machine state of configuration id at slot base
// is the one thing the composition adds to the static engines, and it moves
// through exactly one path, keyed by (id, base):
//
//	publish → serve → transfer → install → retire
//
// publish serializes a copy-on-write fork off the critical path, holds the
// chunks in memory while it commits them (chunks, sync, manifest, sync) under
// rc/snap/<id>, and then drops the in-memory copy. The bootstrap snapshot and
// the state at a wedge are base 0 — the successor's log starts fresh — and a
// within-configuration checkpoint is the same thing with base > 0, committed
// over its predecessor.
//
// serve answers manifest and chunk requests from the in-memory copy when one
// exists and from the store otherwise, so a peer never reads a blob that is
// half overwritten.
//
// transfer is the one goroutine that pulls a snapshot from peers, for a
// joiner and for a lagging member alike. It fetches the manifest from any
// source and the missing chunks concurrently from rotating sources, verifying
// each against the manifest CRC; a corrupt chunk is discarded alone, and
// fruitless rounds back off exponentially with jitter. A joiner stages the
// manifest and then each verified chunk in its store, with one barrier per
// fetched range and one before the install; none is taken under mu.
//
// install builds the machine and has the apply loop swap it in and set the
// apply cursor and the engine's delivery cursor to base; Start recovers from
// the node's own store through the same swap.
//
// retire deletes rc/snap/<id> once this node's current configuration is
// id+2 or later.

// fetchWorkers is the number of concurrent chunk-range downloads per fetch
// round.
const fetchWorkers = 4

// rangeBudget bounds the payload of one chunk-range reply (and of the chunks
// piggybacked on a manifest reply). Round trips, not bytes, dominate transfer
// latency on a loaded control plane, so replies are packed up to this budget;
// a single chunk larger than the budget is still returned alone.
const rangeBudget = 256 << 10

// staleManifestRounds is how many consecutive fruitless fetch rounds a
// transfer tolerates before discarding its manifest and re-pulling it — the
// recovery for sources that replaced the snapshot with a newer checkpoint
// mid-fetch.
const staleManifestRounds = 3

// Publish pacing. Every member of a wedged configuration publishes
// concurrently, so an unpaced serialize burns members × state bytes of CPU at
// the exact moment the successor engine is electing and re-proposing — at 8MB
// that burst alone tripled the client-visible commit gap. publish therefore
// pauses after each publishPaceBytes of serialized chunks, breaking the burst
// into slices small enough not to starve the commit path. Pacing is per byte,
// not per chunk: a small snapshot (32 near-empty shard chunks) must become
// ready in microseconds, and time.Sleep granularity can be tens of
// milliseconds on a loaded host, so per-chunk sleeps would delay readiness by
// chunks × granularity. The only cost is that the manifest becomes ready
// later, which delays the joiner (off the commit path, covered by speculative
// start), not the surviving members.
const publishPaceBytes = 1 << 20

// publishPause is the pause between publishPaceBytes slices. Nominal 2ms; the
// effective floor is the scheduler's sleep granularity.
const publishPause = 2 * time.Millisecond

// snapServing is a snapshot held in memory while commit writes it to the
// store. Requests for its configuration are answered from here, never from
// the partly written blob.
type snapServing struct {
	manifest storage.ChunkManifest
	chunks   [][]byte
}

func snapPrefix(id types.ConfigID) string { return fmt.Sprintf("rc/snap/%020d", uint64(id)) }

// retiredLocked reports whether nobody can still need configuration id's
// snapshot from this node. The current configuration's snapshot is what a
// restart recovers from, and its predecessor's members are where a slow
// joiner of the current configuration fetches; anything older has a
// successor whose own snapshot supersedes it. Caller holds mu.
func (n *Node) retiredLocked(id types.ConfigID) bool { return n.curID >= id+2 }

// --- publish ----------------------------------------------------------------

// publishAsyncLocked publishes src off the caller's critical path. Caller
// holds mu and has just forked src under it.
func (n *Node) publishAsyncLocked(id types.ConfigID, base types.Slot, src statemachine.SnapshotSource) {
	n.publishing++
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		err := n.publish(id, base, src, true)
		n.mu.Lock()
		n.publishing--
		if err != nil {
			n.stats.InvariantViolations++
		}
		n.mu.Unlock()
	}()
}

// publish makes src — the machine state of configuration id at slot base —
// the snapshot peers fetch and this node recovers from. With durable false the
// snapshot is staged and left to the store's next barrier (Bootstrap).
func (n *Node) publish(id types.ConfigID, base types.Slot, src statemachine.SnapshotSource, durable bool) error {
	num := src.NumChunks()
	chunks := make([][]byte, num)
	m := storage.ChunkManifest{Format: statemachine.SnapshotFormat, Base: base, CRCs: make([]uint32, num)}
	sincePause := 0
	for i := 0; i < num; i++ {
		chunks[i] = src.Chunk(i)
		m.CRCs[i] = storage.ChunkCRC(chunks[i])
		sincePause += len(chunks[i])
		if sincePause >= publishPaceBytes {
			sincePause = 0
			time.Sleep(publishPause)
		}
	}
	return n.commit(id, m, chunks, durable)
}

// commit persists a complete snapshot of id over whatever rc/snap/<id> holds,
// serving it from memory meanwhile, and — for a checkpoint — adopts its base
// as this member's durable base and has it announced. snapMu makes the check
// and the write one step against other commits and against retire; a
// snapshot older than the durable one is dropped rather than written over it.
// durable false stages the snapshot instead of waiting on a barrier, for a
// caller that makes no promise before the store's next one (Bootstrap).
func (n *Node) commit(id types.ConfigID, m storage.ChunkManifest, chunks [][]byte, durable bool) error {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	n.mu.Lock()
	// Not abandoned on Stop: a graceful stop right after a wedge must leave the
	// successor's initial state in the store, or a restart has nothing to
	// recover from.
	if n.retiredLocked(id) || (n.ckptCfg == id && m.Base < n.ckptSelfBase) {
		n.mu.Unlock()
		return nil
	}
	n.serving[id] = &snapServing{manifest: m, chunks: chunks}
	n.mu.Unlock()

	// On failure the in-memory copy stays: the store may hold a torn blob,
	// and peers must keep being served until retire drops the entry.
	write := storage.WriteChunkedCommit
	if !durable {
		write = storage.StageChunkedCommit
	}
	if err := write(n.store, snapPrefix(id), m, func(i int) []byte { return chunks[i] }); err != nil {
		return err
	}
	n.mu.Lock()
	delete(n.serving, id)
	if m.Base > 0 && n.curID == id {
		n.noteDurableBaseLocked(m.Base)
		n.stats.CheckpointsPublished++
		n.ckptAnnounceLeft = 0 // the next tick announces the new base
		n.maybeTruncateLocked()
	}
	n.mu.Unlock()
	return nil
}

// --- serve ------------------------------------------------------------------

// snapManifest answers a manifest request from memory or the store.
func (n *Node) snapManifest(id types.ConfigID) (storage.ChunkManifest, bool) {
	n.mu.Lock()
	s, held := n.serving[id]
	n.mu.Unlock()
	var m storage.ChunkManifest
	if held {
		m = s.manifest
	} else if stored, ok, err := storage.ReadChunkManifest(n.store, snapPrefix(id)); err == nil && ok {
		m = stored
	} else {
		return storage.ChunkManifest{}, false
	}
	n.mu.Lock()
	n.stats.SnapshotsServed++
	n.mu.Unlock()
	return m, true
}

// snapChunkOne answers one chunk request from memory or the store. A
// partially fetched joiner serves the chunks it already verified, so a
// snapshot can be pulled from any mix of current and previous members.
func (n *Node) snapChunkOne(id types.ConfigID, idx int) ([]byte, bool) {
	if idx < 0 {
		return nil, false
	}
	n.mu.Lock()
	var data []byte
	found := false
	if s, ok := n.serving[id]; ok && idx < len(s.chunks) {
		data, found = s.chunks[idx], true
	}
	hook := n.testChunkHook
	n.mu.Unlock()
	if !found {
		raw, ok, err := n.store.Get(storage.ChunkKey(snapPrefix(id), idx))
		if err != nil || !ok {
			return nil, false
		}
		data = raw
	}
	if hook != nil {
		data = hook(id, idx, data)
	}
	n.mu.Lock()
	n.stats.ChunksServed++
	n.mu.Unlock()
	return data, true
}

// snapChunkRange gathers up to count consecutive chunks starting at first,
// stopping at the first chunk this node lacks or when the reply would exceed
// rangeBudget (the first chunk is always included, however large).
func (n *Node) snapChunkRange(id types.ConfigID, first, count int) [][]byte {
	if first < 0 || count <= 0 {
		return nil
	}
	var out [][]byte
	total := 0
	for i := first; i < first+count; i++ {
		data, ok := n.snapChunkOne(id, i)
		if !ok {
			break
		}
		if len(out) > 0 && total+len(data) > rangeBudget {
			break
		}
		out = append(out, data)
		total += len(data)
	}
	return out
}

// --- transfer ---------------------------------------------------------------

// wantsSnapshotLocked reports whether this node needs a snapshot of
// configuration id from its peers: it is a member of id, id is still its
// current configuration, and it either has no state yet or is so far behind
// that replaying the log is slower than a fetch (or impossible). It is both
// the launch condition and the abort condition of the transfer goroutine.
// Caller holds mu.
func (n *Node) wantsSnapshotLocked(id types.ConfigID) bool {
	if n.stopped || id == 0 || n.curID != id || !n.configs[id].IsMember(n.self) {
		return false
	}
	return !n.initialized || n.behindLocked()
}

// maybeTransferLocked launches the transfer goroutine if the node wants a
// snapshot of its current configuration and no transfer is running. The
// transition paths call it right away — joining latency is downtime — and
// the tick relaunches one that gave up. Caller holds mu.
func (n *Node) maybeTransferLocked() {
	if n.transfer != 0 || !n.wantsSnapshotLocked(n.curID) {
		return
	}
	n.transfer = n.curID
	n.wg.Add(1)
	go n.runTransfer(n.curID)
}

// runTransfer fetches the newest snapshot of id above what this node holds
// and installs it. It owns n.transfer for its lifetime and keeps trying until
// the install happens or the node stops wanting the snapshot.
//
// What differs between a joiner and a lagging member is read off the node's
// own state each round, not passed in. An uninitialized node accepts any
// snapshot of id its engine can still continue from and persists the
// manifest and every verified chunk as it arrives: that makes the fetch
// resumable across a crash and the joiner itself a source. The manifest is
// staged ahead of its chunks, and staged operations become stable in order,
// so whatever prefix a crash keeps is a manifest with some of its chunks,
// which the next round resumes from. An initialized node accepts only a base
// above its apply cursor and fetches into memory — its store still holds the
// snapshot it is running on, and chunks written under that manifest would
// corrupt the blob it describes; install commits it afterwards.
func (n *Node) runTransfer(id types.ConfigID) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		n.transfer = 0
		n.mu.Unlock()
	}()
	abort := func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return !n.wantsSnapshotLocked(id)
	}
	rng := rand.New(rand.NewSource(types.SeedFor(string(n.self)) ^ int64(id)))
	var (
		manifest storage.ChunkManifest
		chunks   [][]byte
		have     bool
	)
	for attempt, round := 0, 0; ; round++ {
		n.mu.Lock()
		if !n.wantsSnapshotLocked(id) {
			n.mu.Unlock()
			return
		}
		joining, least := !n.initialized, n.appliedSlot+1 // least: the lowest base worth installing
		sources := n.fetchSourcesLocked(id)
		n.mu.Unlock()
		prefix := "" // where verified chunks are persisted; nowhere when initialized
		if joining {
			prefix = snapPrefix(id)
			// A member that lost its snapshot but not its log (torn manifest)
			// has an engine that already released every slot up to its durable
			// floor: an older base would leave a hole nothing can redeliver.
			least, _ = n.opts.engine.Floor(n.store, uint64(id))
		}

		progress := false
		if round == 0 && joining {
			// Resume: adopt whatever a previous attempt (possibly before a
			// crash) already persisted, under the same rule as a fetched
			// manifest. Corrupt or missing chunks come back nil.
			if m, cs, _, err := storage.ReadChunked(n.store, prefix); err == nil && m.Chunks() > 0 && m.Base >= least {
				manifest, chunks, have = m, cs, true
			}
		}
		if !have {
			accept := func(m storage.ChunkManifest) bool { return m.Base >= least }
			if m, lead, ok := n.fetchManifest(id, sources, rng, accept); ok {
				manifest, have, progress = m, true, true
				chunks = make([][]byte, m.Chunks())
				if joining {
					if err := n.store.SetBuffered(storage.ManifestKey(prefix), storage.EncodeChunkManifest(m)); err != nil {
						n.countViolation()
					}
					// Persisted chunks that verify against this manifest (a
					// refresh whose content mostly survived) are kept.
					if _, cs, _, err := storage.ReadChunked(n.store, prefix); err == nil && len(cs) == m.Chunks() {
						chunks = cs
					}
				}
				// The chunks piggybacked on the reply; for a small snapshot
				// that is the whole transfer in one round trip.
				accepted := 0
				for i, data := range lead {
					if i < len(chunks) && chunks[i] == nil && n.acceptChunk(prefix, manifest, chunks, nil, i, data) {
						accepted++
					}
				}
				n.persistFetched(prefix, accepted)
			}
		}
		if have {
			if n.fetchMissingChunks(id, prefix, manifest, chunks, sources, abort) {
				progress = true
			}
			if len(missingSpans(chunks)) == 0 {
				// install announces a joiner's base to the peers, who
				// truncate against it: the barrier makes every chunk this
				// node holds of it durable first, the resumed ones included.
				if joining {
					if err := n.store.Sync(); err != nil {
						n.countViolation()
						return
					}
				}
				n.install(id, manifest, chunks)
				return
			}
		}

		if progress {
			attempt = 0
			continue
		}
		attempt++
		if have && attempt%staleManifestRounds == 0 {
			// Nothing useful for several rounds while holding a manifest:
			// the sources may have replaced the snapshot with a newer
			// checkpoint (their chunks no longer match our CRCs). Drop the
			// manifest and re-pull it.
			have = false
		}
		n.mu.Lock()
		n.stats.ChunkRetries++
		n.mu.Unlock()
		delay := BackoffDelay(attempt, retryInterval, 4*fetchTimeout, rng)
		select {
		case <-time.After(delay):
		case <-n.stopCh:
			return
		}
	}
}

// acceptChunk CRC-verifies one fetched chunk; on success it records it in
// chunks (under resMu when given) and, unless prefix is empty, stages it in
// the store for the caller's persistFetched. Returns whether the chunk was
// accepted.
func (n *Node) acceptChunk(prefix string, m storage.ChunkManifest, chunks [][]byte, resMu *sync.Mutex, idx int, data []byte) bool {
	if storage.ChunkCRC(data) != m.CRCs[idx] {
		// Corrupt on the wire or a poisoned source: reject this chunk
		// alone; nothing already verified is touched.
		n.mu.Lock()
		n.stats.ChunkCRCRejected++
		n.mu.Unlock()
		return false
	}
	if resMu != nil {
		resMu.Lock()
	}
	chunks[idx] = data
	if resMu != nil {
		resMu.Unlock()
	}
	if prefix != "" {
		if err := n.store.SetBuffered(storage.ChunkKey(prefix, idx), data); err != nil {
			n.countViolation()
		}
	}
	return true
}

// persistFetched ends one fetched range of accepted chunks. A joiner staged
// them (prefix non-empty), and one barrier per range makes them durable, so a
// crash keeps a resumable prefix of the fetch and ChunksFetched counts only
// persisted chunks. It runs on the transfer goroutine or one of its fetch
// workers, never under mu.
func (n *Node) persistFetched(prefix string, accepted int) {
	if accepted == 0 {
		return
	}
	if prefix != "" {
		if err := n.store.Sync(); err != nil {
			n.countViolation()
			return
		}
	}
	n.mu.Lock()
	n.stats.ChunksFetched += int64(accepted)
	n.mu.Unlock()
}

// fetchManifest asks sources (in random order) for a snapshot manifest the
// caller accepts. The reply also piggybacks the snapshot's leading chunks
// (within rangeBudget), which the caller adopts after per-chunk CRC
// verification.
func (n *Node) fetchManifest(id types.ConfigID, sources []types.NodeID, rng *rand.Rand, accept func(storage.ChunkManifest) bool) (storage.ChunkManifest, [][]byte, bool) {
	order := rng.Perm(len(sources))
	for _, i := range order {
		ctx, cancel := context.WithTimeout(n.baseCtx, fetchTimeout)
		resp, err := n.peer.Call(ctx, sources[i], encodeSnapMeta(snapMetaReq{Config: id}), 0)
		cancel()
		if err != nil {
			continue
		}
		mr, err := decodeSnapMetaReply(resp)
		if err != nil || !mr.Found {
			continue
		}
		m := storage.ChunkManifest{Format: mr.Format, Base: mr.Base, CRCs: mr.CRCs}
		if accept(m) {
			return m, mr.Chunks, true
		}
	}
	return storage.ChunkManifest{}, nil, false
}

// chunkSpan is a contiguous run of missing chunk indexes assigned to one
// fetch worker.
type chunkSpan struct {
	first, count int
}

// missingSpans groups the nil entries of chunks into contiguous spans, each
// capped so the work splits across at least fetchWorkers workers.
func missingSpans(chunks [][]byte) []chunkSpan {
	var missing []int
	for i, c := range chunks {
		if c == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	spanCap := (len(missing) + fetchWorkers - 1) / fetchWorkers
	var spans []chunkSpan
	cur := chunkSpan{first: missing[0], count: 1}
	for _, idx := range missing[1:] {
		if idx == cur.first+cur.count && cur.count < spanCap {
			cur.count++
			continue
		}
		spans = append(spans, cur)
		cur = chunkSpan{first: idx, count: 1}
	}
	return append(spans, cur)
}

// fetchMissingChunks pulls every nil entry of chunks concurrently, one
// contiguous span per request. Each worker starts at a different source and
// rotates through the rest when a source yields nothing useful, so the load
// spreads and a dead or corrupt source only costs the spans it was tried
// for. Returns whether any chunk was fetched.
func (n *Node) fetchMissingChunks(id types.ConfigID, prefix string, m storage.ChunkManifest, chunks [][]byte, sources []types.NodeID, abort func() bool) bool {
	if len(sources) == 0 {
		return false
	}
	spans := missingSpans(chunks)
	if len(spans) == 0 {
		return false
	}
	workers := fetchWorkers
	if workers > len(spans) {
		workers = len(spans)
	}
	spanCh := make(chan chunkSpan)
	var wg sync.WaitGroup
	var resMu sync.Mutex
	progress := false
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sp := range spanCh {
				if n.fetchSpan(id, prefix, m, chunks, &resMu, sp, sources, w, abort) {
					resMu.Lock()
					progress = true
					resMu.Unlock()
				}
			}
		}(w)
	}
	for _, sp := range spans {
		if abort() {
			break
		}
		spanCh <- sp
	}
	close(spanCh)
	wg.Wait()
	return progress
}

// fetchSpan pulls one contiguous span of chunks, advancing through it in
// range requests and rotating sources whenever one yields nothing usable. A
// CRC-rejected chunk in the middle of a range leaves a hole that a later
// round retries (against a rotated source) without re-fetching its verified
// neighbors.
func (n *Node) fetchSpan(id types.ConfigID, prefix string, m storage.ChunkManifest, chunks [][]byte, resMu *sync.Mutex, sp chunkSpan, sources []types.NodeID, w int, abort func() bool) bool {
	progress := false
	idx := sp.first
	end := sp.first + sp.count
	for idx < end {
		if abort() {
			return progress
		}
		advanced := false
		for s := 0; s < len(sources); s++ {
			src := sources[(w+s)%len(sources)]
			got := n.fetchChunkRange(id, idx, end-idx, src)
			if len(got) == 0 {
				continue
			}
			accepted := 0
			for i, data := range got {
				if idx+i >= end {
					break
				}
				if n.acceptChunk(prefix, m, chunks, resMu, idx+i, data) {
					accepted++
				}
			}
			n.persistFetched(prefix, accepted)
			if accepted > 0 {
				// Move past the whole returned range; rejected chunks in it
				// stay nil and are retried in a later round.
				idx += len(got)
				progress = true
				advanced = true
				break
			}
		}
		if !advanced {
			return progress // no source helped here; back off and retry later
		}
	}
	return progress
}

func (n *Node) fetchChunkRange(id types.ConfigID, first, count int, src types.NodeID) [][]byte {
	ctx, cancel := context.WithTimeout(n.baseCtx, fetchTimeout)
	defer cancel()
	resp, err := n.peer.Call(ctx, src, encodeSnapChunk(snapChunkReq{Config: id, First: first, Count: count}), 0)
	if err != nil {
		return nil
	}
	cr, err := decodeSnapChunkReply(resp)
	if err != nil || len(cr.Chunks) > count {
		return nil
	}
	return cr.Chunks
}

// --- install ----------------------------------------------------------------

// buildMachine constructs a fresh sessioned machine from a complete chunk
// set.
func (n *Node) buildMachine(m storage.ChunkManifest, chunks [][]byte) (*statemachine.Sessioned, error) {
	if m.Format != statemachine.SnapshotFormat {
		return nil, fmt.Errorf("%w: snapshot format %d, want %d", types.ErrCodec, m.Format, statemachine.SnapshotFormat)
	}
	fresh := statemachine.NewSessioned(n.factory())
	for i, c := range chunks {
		if err := fresh.RestoreChunk(i, c); err != nil {
			return nil, err
		}
	}
	if err := fresh.FinishRestore(len(chunks)); err != nil {
		return nil, err
	}
	return fresh, nil
}

// install adopts a complete, verified chunk set as the state of configuration
// id at slot m.Base: a joiner's initial state or a lagging member's jump
// forward. The O(state) machine build runs here, on the caller's goroutine;
// the swap is handed to the apply loop (installLocked), which makes it
// between two rounds, so no segment ever executes against a machine that is
// being replaced. Having replaced the state its store describes, an
// initialized node then commits the snapshot it now runs on, so a restart
// recovers from base rather than from a state whose log is gone. Reports
// whether the install happened.
func (n *Node) install(id types.ConfigID, m storage.ChunkManifest, chunks [][]byte) bool {
	fresh, err := n.buildMachine(m, chunks)
	if err != nil {
		n.countViolation()
		return false
	}
	var installed, joined bool
	if !n.onLoop(func() { installed, joined = n.installLocked(id, m.Base, fresh) }) {
		return false
	}
	if installed && !joined {
		if err := n.commit(id, m, chunks, true); err != nil {
			n.countViolation()
		}
	}
	return installed
}

// --- retire -----------------------------------------------------------------

// maybeRetireLocked drops every snapshot nobody can still need: the
// in-memory copies here, the stored blobs on a goroutine of their own. A
// snapshot the transfer goroutine may still be persisting chunks of waits
// until that goroutine has exited. Caller holds mu (the tick).
func (n *Node) maybeRetireLocked() {
	var ids []types.ConfigID
	for n.retiredLocked(n.retireNext) && n.retireNext != n.transfer {
		delete(n.serving, n.retireNext)
		ids = append(ids, n.retireNext)
		n.retireNext++
	}
	if len(ids) > 0 {
		n.wg.Add(1)
		go n.retire(ids)
	}
}

// retire deletes the stored snapshots of ids. snapMu orders it after any
// commit of the same configuration that was already writing.
func (n *Node) retire(ids []types.ConfigID) {
	defer n.wg.Done()
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	for _, id := range ids {
		if err := storage.DeleteChunked(n.store, snapPrefix(id)); err != nil {
			n.countViolation()
		}
	}
}

func (n *Node) countViolation() {
	n.mu.Lock()
	n.stats.InvariantViolations++
	n.mu.Unlock()
}
