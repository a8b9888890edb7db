package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/storage"
)

// span is one timed interval at a layer boundary, measured from outside the
// program: around a call the benchmark itself makes, or (storage) around a
// call the program makes into a store the benchmark handed it.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Member  string `json:"member,omitempty"`
}

// maxSpans bounds trace memory; spans past it are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: every method is a no-op, so untraced runs pay one nil check.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int64
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its id (0 when tracing is off).
func (t *tracer) add(name string, start, end time.Time, parent uint64, member string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return t.nextID
	}
	t.spans = append(t.spans, span{
		Name: name, StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
		ID: t.nextID, Parent: parent, Member: member,
	})
	return t.nextID
}

// traceHeader is the first line of a trace file.
type traceHeader struct {
	Workload string  `json:"workload"`
	Env      envInfo `json:"env"`
	Spans    int     `json:"spans"`
	Dropped  int64   `json:"dropped"`
	Note     string  `json:"note"`
}

const traceNote = "Spans are measured from outside the program, around calls into each layer's public functions. " +
	"One root span 'op' per sampled client operation (1 in 64) with its client.Submit/client.Read child. " +
	"storage.* spans carry the member id and no parent: from outside a store call, the request that caused it is invisible. " +
	"Store calls shorter than 20us are counted in the per-layer metrics but not kept as spans. " +
	"probe.* spans cover one isolated layer probe each. Times are ns since the header's process start."

// writeFile writes the header and every span, one JSON object per line.
func (t *tracer) writeFile(path, workload string, env envInfo) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := t.spans
	dropped := t.dropped
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(traceHeader{Workload: workload, Env: env, Spans: len(spans), Dropped: dropped, Note: traceNote})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(&spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// slowStoreCall is the duration from which a store call is kept as a span.
// Calls into a mem store take ~100ns and would flood the trace; calls into
// the fsynced WAL take far longer and all pass.
const slowStoreCall = 20 * time.Microsecond

// tracedStore decorates a storage.Store handed to a node: it counts calls and
// bytes, times every call, and keeps slow calls as spans. It is only ever
// installed on a traced run.
type tracedStore struct {
	inner  storage.Store
	member string
	tr     *tracer
	origin time.Time // bucket 0 of busyByS starts here

	mu      sync.Mutex
	syncs   int64
	writes  int64
	deletes int64
	bytes   int64
	busyNS  int64
	busyByS []int64 // ns inside store calls, per wall-clock second since origin
	syncNS  []int64 // every Sync duration
}

// tracedBufferedStore adds SetBuffered, so that a decorated WAL or mem store
// still satisfies storage.BufferedStore and paxos stays on its group-commit
// path.
type tracedBufferedStore struct {
	*tracedStore
	buffered storage.BufferedStore
}

var (
	_ storage.Store         = (*tracedStore)(nil)
	_ storage.BufferedStore = (*tracedBufferedStore)(nil)
)

// traceStore wraps inner, keeping BufferedStore when inner has it.
func traceStore(inner storage.Store, member string, tr *tracer) (storage.Store, *tracedStore) {
	ts := &tracedStore{inner: inner, member: member, tr: tr, origin: time.Now()}
	if b, ok := inner.(storage.BufferedStore); ok {
		return &tracedBufferedStore{tracedStore: ts, buffered: b}, ts
	}
	return ts, ts
}

// observe accounts one finished store call.
func (s *tracedStore) observe(name string, start time.Time, count *int64, nbytes int) {
	end := time.Now()
	d := end.Sub(start)
	s.mu.Lock()
	if count != nil {
		*count++
	}
	s.bytes += int64(nbytes)
	s.busyNS += d.Nanoseconds()
	s.addBusy(start.Sub(s.origin).Nanoseconds(), end.Sub(s.origin).Nanoseconds())
	if name == "storage.sync" {
		s.syncNS = append(s.syncNS, d.Nanoseconds())
	}
	s.mu.Unlock()
	if d >= slowStoreCall {
		s.tr.add(name, start, end, 0, s.member)
	}
}

// addBusy spreads [from,to) over the one-second buckets it overlaps.
func (s *tracedStore) addBusy(from, to int64) {
	const sec = int64(time.Second)
	for from < to {
		b := from / sec
		edge := (b + 1) * sec
		if edge > to {
			edge = to
		}
		for int64(len(s.busyByS)) <= b {
			s.busyByS = append(s.busyByS, 0)
		}
		s.busyByS[b] += edge - from
		from = edge
	}
}

func (s *tracedStore) Set(key string, value []byte) error {
	start := time.Now()
	err := s.inner.Set(key, value)
	s.observe("storage.set", start, &s.writes, len(key)+len(value))
	return err
}

func (s *tracedBufferedStore) SetBuffered(key string, value []byte) error {
	start := time.Now()
	err := s.buffered.SetBuffered(key, value)
	s.observe("storage.set_buffered", start, &s.writes, len(key)+len(value))
	return err
}

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := s.inner.Get(key)
	s.observe("storage.get", start, nil, 0)
	return v, ok, err
}

func (s *tracedStore) Delete(key string) error {
	start := time.Now()
	err := s.inner.Delete(key)
	s.observe("storage.delete", start, &s.deletes, 0)
	return err
}

func (s *tracedStore) Scan(prefix string) ([]storage.KV, error) {
	start := time.Now()
	kvs, err := s.inner.Scan(prefix)
	s.observe("storage.scan", start, nil, 0)
	return kvs, err
}

func (s *tracedStore) Sync() error {
	start := time.Now()
	err := s.inner.Sync()
	s.observe("storage.sync", start, &s.syncs, 0)
	return err
}

// storeCounts is a copy of a tracedStore's counters at one instant.
type storeCounts struct {
	syncs, writes, deletes, bytes, busyNS int64
	busyByS                               []int64
	syncNS                                []int64
}

func (s *tracedStore) counts() storeCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeCounts{
		syncs: s.syncs, writes: s.writes, deletes: s.deletes, bytes: s.bytes, busyNS: s.busyNS,
		busyByS: append([]int64(nil), s.busyByS...),
		syncNS:  append([]int64(nil), s.syncNS...),
	}
}
