package cluster

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/storage"
	"repro/internal/types"
)

// Storage backend names accepted by Config.Storage and the CLI flags. The
// empty name means StorageMem.
const (
	StorageMem = "mem" // in-memory; what tests run on
	StorageWAL = "wal" // segmented group-commit log on disk
)

// CheckStorage reports whether name is a backend Stores can open.
func CheckStorage(name string) error {
	switch name {
	case "", StorageMem, StorageWAL:
		return nil
	}
	return fmt.Errorf("cluster: unknown storage backend %q (want %s or %s)", name, StorageMem, StorageWAL)
}

// Stores opens the per-node stores of one deployment and owns what backs
// them: the WAL handles and, when Dir is empty, a temp root. The caller
// serializes Open and Close.
type Stores struct {
	Backend string
	// Dir roots the on-disk backend, one subdirectory per node. Empty means
	// a fresh OS temp directory removed on Close.
	Dir string

	temp string
	wals []*storage.WALStore
}

// Open builds one node's store.
func (s *Stores) Open(id types.NodeID) (storage.Store, error) {
	if err := CheckStorage(s.Backend); err != nil {
		return nil, err
	}
	if s.Backend != StorageWAL {
		return storage.NewMem(), nil
	}
	root := s.Dir
	if root == "" {
		if s.temp == "" {
			dir, err := os.MkdirTemp("", "rsm-store-*")
			if err != nil {
				return nil, fmt.Errorf("cluster: storage dir: %w", err)
			}
			s.temp = dir
		}
		root = s.temp
	}
	w, err := storage.OpenWALStore(filepath.Join(root, string(id)), storage.WALStoreOptions{})
	if err != nil {
		return nil, err
	}
	s.wals = append(s.wals, w)
	return w, nil
}

// Close closes every store opened and removes the temp root, if any.
func (s *Stores) Close() {
	for _, w := range s.wals {
		_ = w.Close()
	}
	s.wals = nil
	if s.temp != "" {
		_ = os.RemoveAll(s.temp)
	}
}
