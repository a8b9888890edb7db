package storage

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkStorageBackends runs the acceptor hot-path workload on the WAL
// backend: concurrent writers each durably persisting slot records (sync
// mode: the write must be on disk before Set returns). This is where group
// commit shows up — the WAL coalesces all concurrent writers into ~one fsync
// per batch, so wal-sync closes on wal-nosync as writers are added.
//
//	go test ./internal/storage/ -bench StorageBackends -benchtime 2s
func BenchmarkStorageBackends(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 64) // ~ an encoded accept record
	backends := []struct {
		name string
		open func(b *testing.B) Store
	}{
		{"wal-sync", func(b *testing.B) Store {
			s, err := OpenWALStore(b.TempDir(), WALStoreOptions{SyncWrites: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = s.Close() })
			return s
		}},
		{"wal-nosync", func(b *testing.B) Store {
			s, err := OpenWALStore(b.TempDir(), WALStoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = s.Close() })
			return s
		}},
	}
	for _, backend := range backends {
		for _, writers := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/writers=%d", backend.name, writers), func(b *testing.B) {
				s := backend.open(b)
				benchSlotWrites(b, s, writers, payload)
			})
		}
	}
}

// benchSlotWrites spreads b.N slot persists over the given number of
// concurrent writers, like independent Paxos instances sharing one disk.
func benchSlotWrites(b *testing.B, s Store, writers int, payload []byte) {
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prefix := fmt.Sprintf("r%d/acc/", g)
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if err := s.Set(SlotKey(prefix, uint64(i)), payload); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkWALStoreAppend isolates the record-encode + buffer path of a
// WALStore write (no fsync): the per-record allocation behavior of the
// mutation codec shows up directly in allocs/op.
//
//	go test ./internal/storage/ -bench WALStoreAppend -benchmem
func BenchmarkWALStoreAppend(b *testing.B) {
	value := bytes.Repeat([]byte{0xab}, 128)
	s, err := OpenWALStore(b.TempDir(), WALStoreOptions{compactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/slot/%06d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set(keys[i%len(keys)], value); err != nil {
			b.Fatal(err)
		}
	}
}
