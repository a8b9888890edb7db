package reconfig

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/smr"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/types"
)

// The snapshot pipeline. The machine state of configuration id at slot 0 is
// the one thing the composition adds to the static engines, and it moves
// through exactly one path, keyed by id:
//
//	publish → serve → transfer → install → retire
//
// publish serializes a copy-on-write fork off the critical path, hands the
// in-memory copy to the apply loop and, once the loop serves it, commits the
// chunks (chunks, sync, manifest, sync) under rc/snap/<id> and reports the
// commit's end. Every snapshot is a configuration's state at slot 0: the
// bootstrap snapshot, or the state at the wedge that ended its predecessor —
// a reconfiguration or the log bound — since the successor's log starts
// fresh.
//
// serve answers manifest and chunk requests from the in-memory copy while one
// is held and from the store otherwise, so a peer never reads a blob that is
// half overwritten.
//
// transfer is the one goroutine that pulls a snapshot from peers, for a
// joiner and for a member whose stale jump left it without state. It fetches
// the manifest from any source and the missing chunks concurrently from
// rotating sources, verifying each against the manifest CRC; a corrupt chunk
// is discarded alone, and fruitless rounds back off exponentially with
// jitter. It stages the manifest and then each verified chunk in the store,
// with one barrier per fetched range and one before the install.
//
// install builds the machine and has the apply loop swap it in; Start
// recovers from the node's own store through the same swap.
//
// retire deletes rc/snap/<id> once this node's current configuration is
// id+2 or later, and with it the engine namespaces of retired runs, but
// neither before a newer snapshot is durable here.
//
// The workers of every stage — the publish, transfer and retire goroutines
// and the transfer's fetch workers — own no node state and never take mu:
// they report to the apply loop through its mailbox (post, onLoop), and the
// loop alone writes the pipeline's bookkeeping (serving, transfer,
// snapDurable, retireNext, discardNext, retiring; apply.go). That order is
// what keeps two writers of one blob apart: the loop retires no snapshot
// whose commit or transfer has not reported its end. Their counters are
// atomics (workerStats), which Stats folds in.

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
// recovery for sources whose chunks no longer match it.
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

// snapServing is a snapshot this node commits. The loop registers it at the
// wedge's fork with no chunks, and holds the serialized copy from publish's
// report until the commit's: requests for its configuration are answered from
// here, never from the partly written blob. committing is set until the
// commit reports its end; a failed commit leaves the copy served until retire
// drops it.
type snapServing struct {
	manifest   storage.ChunkManifest
	chunks     [][]byte
	committing bool
}

func snapPrefix(id types.ConfigID) string { return fmt.Sprintf("rc/snap/%020d", uint64(id)) }

// retiredLocked reports whether nobody can still need configuration id's
// snapshot from this node. The current configuration's snapshot is what a
// restart recovers from, and its predecessor's members are where a slow
// joiner of the current configuration fetches; anything older has a
// successor whose own snapshot supersedes it. Caller holds mu.
func (n *Node) retiredLocked(id types.ConfigID) bool { return n.curID >= id+2 }

// --- publish ----------------------------------------------------------------

// publish makes src — the machine state of configuration id at slot 0, forked
// on the loop, which registered id as committing (wedgeLocked) — the snapshot
// peers fetch and this node recovers from. The commit starts only once the
// loop serves the in-memory copy, so no peer reads the blob while it is
// overwritten, and not at all if id is retired by then: nobody can still need
// it. It runs on a goroutine of its own and is not abandoned on Stop: a
// graceful stop right after a wedge must leave the successor's initial state
// in the store, or a restart has nothing to recover from.
func (n *Node) publish(id types.ConfigID, src statemachine.SnapshotSource) {
	defer n.wg.Done()
	m, chunks := serialize(src)
	retired := false
	if n.onLoop(func() { retired = n.servingLocked(id, m, chunks) }) && retired {
		return
	}
	n.commit(id, m, chunks)
}

// serialize reads src's chunks and their CRCs, pausing after every
// publishPaceBytes.
func serialize(src statemachine.SnapshotSource) (storage.ChunkManifest, [][]byte) {
	num := src.NumChunks()
	chunks := make([][]byte, num)
	m := storage.ChunkManifest{Format: statemachine.SnapshotFormat, CRCs: make([]uint32, num)}
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
	return m, chunks
}

// commit persists a complete snapshot of id over whatever rc/snap/<id> holds
// and reports the end to the loop (committedLocked), which retires nothing of
// id before it. On failure the store may hold a torn blob; the loop keeps
// serving the in-memory copy.
func (n *Node) commit(id types.ConfigID, m storage.ChunkManifest, chunks [][]byte) {
	err := storage.WriteChunkedCommit(n.store, snapPrefix(id), m, func(i int) []byte { return chunks[i] })
	n.post(func() { n.committedLocked(id, err) })
}

// --- serve ------------------------------------------------------------------

// snapManifest answers a manifest request from memory or the store.
func (n *Node) snapManifest(id types.ConfigID) (storage.ChunkManifest, bool) {
	n.mu.Lock()
	s := n.serving[id]
	n.mu.Unlock()
	var m storage.ChunkManifest
	if s != nil && s.chunks != nil {
		m = s.manifest
	} else if stored, ok, err := storage.ReadChunkManifest(n.store, snapPrefix(id)); err == nil && ok {
		m = stored
	} else {
		return storage.ChunkManifest{}, false
	}
	n.workerStats.snapshotsServed.Add(1)
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
	if s := n.serving[id]; s != nil && idx < len(s.chunks) {
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
	n.workerStats.chunksServed.Add(1)
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

// runTransfer fetches the snapshot of id, its state at slot 0, from sources
// and installs it. The loop launched it (maybeTransferLocked) and clears
// n.transfer at its last report; it keeps trying until the install happens or
// ctx is cancelled, which the loop does once the node moves past id
// (jumpLocked) and Stop does through baseCtx. The cancel also ends the
// in-flight fetch RPCs and the backoff wait.
//
// It persists the manifest and every verified chunk as it arrives: that makes
// the fetch resumable across a crash and the joiner itself a source. The
// manifest is staged ahead of its chunks, and staged operations become stable
// in order, so whatever prefix a crash keeps is a manifest with some of its
// chunks, which the next round resumes from.
func (n *Node) runTransfer(ctx context.Context, id types.ConfigID, sources []types.NodeID) {
	defer n.wg.Done()
	defer n.post(n.transferEndedLocked)
	rng := rand.New(rand.NewSource(types.SeedFor(string(n.self)) ^ int64(id)))
	prefix := snapPrefix(id) // where verified chunks are persisted
	var (
		manifest storage.ChunkManifest
		chunks   [][]byte
		have     bool
	)
	for attempt, round := 0, 0; ctx.Err() == nil; round++ {
		progress := false
		if round == 0 {
			// Resume: adopt whatever a previous attempt (possibly before a
			// crash) already persisted. Corrupt or missing chunks come back
			// nil.
			if m, cs, _, err := storage.ReadChunked(n.store, prefix); err == nil && m.Chunks() > 0 && m.Base == 0 {
				manifest, chunks, have = m, cs, true
			}
		}
		if !have {
			if m, lead, ok := n.fetchManifest(ctx, id, sources, rng); ok {
				manifest, have, progress = m, true, true
				chunks = make([][]byte, m.Chunks())
				if err := n.store.SetBuffered(storage.ManifestKey(prefix), storage.EncodeChunkManifest(m)); err != nil {
					n.countViolation()
				}
				// Persisted chunks that verify against this manifest (a
				// refresh whose content mostly survived) are kept.
				if _, cs, _, err := storage.ReadChunked(n.store, prefix); err == nil && len(cs) == m.Chunks() {
					chunks = cs
				}
				// The chunks piggybacked on the reply; for a small snapshot
				// that is the whole transfer in one round trip.
				accepted := 0
				for i, data := range lead {
					if i < len(chunks) && chunks[i] == nil && n.acceptChunk(prefix, manifest, chunks, nil, i, data) {
						accepted++
					}
				}
				n.persistFetched(accepted)
			}
		}
		if have {
			if n.fetchMissingChunks(ctx, id, prefix, manifest, chunks, sources) {
				progress = true
			}
			if len(missingSpans(chunks)) == 0 {
				// The installed state is what a restart recovers from: the
				// barrier makes every chunk this node holds of it durable
				// first, the resumed ones included.
				if err := n.store.Sync(); err != nil {
					n.countViolation()
					return
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
			// the sources' chunks may no longer match our CRCs. Drop the
			// manifest and re-pull it.
			have = false
		}
		n.workerStats.chunkRetries.Add(1)
		select {
		case <-time.After(BackoffDelay(attempt, retryInterval, 4*fetchTimeout, rng)):
		case <-ctx.Done():
		}
	}
}

// acceptChunk CRC-verifies one fetched chunk; on success it records it in
// chunks (under resMu when given) and stages it in the store for the caller's
// persistFetched. Returns whether the chunk was
// accepted.
func (n *Node) acceptChunk(prefix string, m storage.ChunkManifest, chunks [][]byte, resMu *sync.Mutex, idx int, data []byte) bool {
	if storage.ChunkCRC(data) != m.CRCs[idx] {
		// Corrupt on the wire or a poisoned source: reject this chunk
		// alone; nothing already verified is touched.
		n.workerStats.chunkCRCRejected.Add(1)
		return false
	}
	if resMu != nil {
		resMu.Lock()
	}
	chunks[idx] = data
	if resMu != nil {
		resMu.Unlock()
	}
	if err := n.store.SetBuffered(storage.ChunkKey(prefix, idx), data); err != nil {
		n.countViolation()
	}
	return true
}

// persistFetched ends one fetched range of accepted chunks: they were staged,
// and one barrier per range makes them durable, so a crash keeps a resumable
// prefix of the fetch and ChunksFetched counts only persisted chunks.
func (n *Node) persistFetched(accepted int) {
	if accepted == 0 {
		return
	}
	if err := n.store.Sync(); err != nil {
		n.countViolation()
		return
	}
	n.workerStats.chunksFetched.Add(int64(accepted))
}

// fetchManifest asks sources (in random order) for the snapshot's manifest.
// The reply also piggybacks the snapshot's leading chunks (within
// rangeBudget), which the caller adopts after per-chunk CRC verification.
func (n *Node) fetchManifest(ctx context.Context, id types.ConfigID, sources []types.NodeID, rng *rand.Rand) (storage.ChunkManifest, [][]byte, bool) {
	order := rng.Perm(len(sources))
	for _, i := range order {
		callCtx, cancel := context.WithTimeout(ctx, fetchTimeout)
		resp, err := n.peer.Call(callCtx, sources[i], encodeSnapMeta(snapMetaReq{Config: id}), 0)
		cancel()
		if err != nil {
			continue
		}
		mr, err := decodeSnapMetaReply(resp)
		if err != nil || !mr.Found {
			continue
		}
		if mr.Base == 0 { // an older version's mid-log checkpoint is of no use
			return storage.ChunkManifest{Format: mr.Format, CRCs: mr.CRCs}, mr.Chunks, true
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
// for. Returns whether any chunk was fetched; a cancelled ctx stops it.
func (n *Node) fetchMissingChunks(ctx context.Context, id types.ConfigID, prefix string, m storage.ChunkManifest, chunks [][]byte, sources []types.NodeID) bool {
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
				if n.fetchSpan(ctx, id, prefix, m, chunks, &resMu, sp, sources, w) {
					resMu.Lock()
					progress = true
					resMu.Unlock()
				}
			}
		}(w)
	}
	for _, sp := range spans {
		if ctx.Err() != nil {
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
func (n *Node) fetchSpan(ctx context.Context, id types.ConfigID, prefix string, m storage.ChunkManifest, chunks [][]byte, resMu *sync.Mutex, sp chunkSpan, sources []types.NodeID, w int) bool {
	progress := false
	idx := sp.first
	end := sp.first + sp.count
	for idx < end && ctx.Err() == nil {
		advanced := false
		for s := 0; s < len(sources); s++ {
			src := sources[(w+s)%len(sources)]
			got := n.fetchChunkRange(ctx, id, idx, end-idx, src)
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
			n.persistFetched(accepted)
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

func (n *Node) fetchChunkRange(ctx context.Context, id types.ConfigID, first, count int, src types.NodeID) [][]byte {
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
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
// id at slot 0; an older version's mid-log checkpoint (Base > 0) is refused.
// The O(state) machine build runs here, on the caller's goroutine; the swap is
// handed to the apply loop (installLocked), which makes it between two
// rounds, so no segment ever executes against a machine that is being
// replaced. Reports whether the install happened.
func (n *Node) install(id types.ConfigID, m storage.ChunkManifest, chunks [][]byte) (installed bool) {
	if m.Base != 0 {
		return false
	}
	fresh, err := n.buildMachine(m, chunks)
	if err != nil {
		n.countViolation()
		return false
	}
	n.onLoop(func() { installed = n.installLocked(id, fresh) })
	return installed
}

// --- retire ---------------------------------------------------------------

// retire stops the engines of retired runs, then deletes the stored snapshots
// snaps and the engine namespaces streams with staged deletes and one
// barrier, which also moves the discard cursor past streams, and reports its
// end to the loop. The loop hands it no snapshot whose commit or transfer is
// still writing (retireLocked).
func (n *Node) retire(old []smr.Replica, snaps, streams []types.ConfigID) {
	defer n.wg.Done()
	for _, eng := range old {
		eng.Stop()
	}
	if err := n.discard(snaps, streams); err != nil && err != storage.ErrStoreClosed {
		n.countViolation()
	}
	n.post(n.retireEndedLocked)
}

// discardKey holds the discard cursor: every configuration below it has had
// its engine namespace discarded.
const discardKey = "rc/discard"

func (n *Node) discard(snaps, streams []types.ConfigID) error {
	for _, id := range snaps {
		if err := storage.StageDeleteChunked(n.store, snapPrefix(id)); err != nil {
			return err
		}
	}
	if len(streams) > 0 {
		for _, id := range streams {
			if err := n.opts.engine.Discard(n.store, uint64(id)); err != nil {
				return err
			}
		}
		w := types.NewWriter(10)
		w.Uvarint(uint64(streams[len(streams)-1] + 1))
		if err := n.store.SetBuffered(discardKey, w.Bytes()); err != nil {
			return err
		}
	}
	return n.store.Sync()
}

// countViolation counts an invariant violation a worker found, without mu.
func (n *Node) countViolation() { n.workerStats.violations.Add(1) }
