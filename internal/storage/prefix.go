package storage

import "strings"

// WithPrefix returns a Stager view of base where every key is transparently
// namespaced under prefix: writes prepend it, Scan results have it stripped.
// This is how N RSM groups share one physical store — each group writes
// through its own prefixed view (GroupPrefix) into the *same* WAL, so the
// WAL's group commit coalesces fsyncs across groups and recovery naturally
// demultiplexes records by prefix. The view stages through Staged(base); an
// empty prefix returns that unchanged, so group 0 reads and writes exactly
// the keys an ungrouped node does.
func WithPrefix(base Store, prefix string) Stager {
	if prefix == "" {
		return Staged(base)
	}
	return &prefixStore{base: Staged(base), prefix: prefix}
}

// GroupPrefix renders the key namespace for one group's records in a shared
// store. Group 0 maps to the empty prefix: a store written by an ungrouped
// node is byte-for-byte a group-0 store, so existing data directories stay
// readable.
func GroupPrefix(gid uint64) string {
	if gid == 0 {
		return ""
	}
	return "g" + uitoa(gid) + "/"
}

// uitoa avoids pulling strconv formatting through the hot path; group IDs are
// small and this is called once per store open, not per write.
func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

type prefixStore struct {
	base   Stager
	prefix string
}

func (s *prefixStore) Set(key string, value []byte) error {
	return s.base.Set(s.prefix+key, value)
}

func (s *prefixStore) SetBuffered(key string, value []byte) error {
	return s.base.SetBuffered(s.prefix+key, value)
}

func (s *prefixStore) Get(key string) ([]byte, bool, error) {
	return s.base.Get(s.prefix + key)
}

func (s *prefixStore) Delete(key string) error {
	return s.base.Delete(s.prefix + key)
}

func (s *prefixStore) DeleteBuffered(key string) error {
	return s.base.DeleteBuffered(s.prefix + key)
}

func (s *prefixStore) Scan(prefix string) ([]KV, error) {
	kvs, err := s.base.Scan(s.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]KV, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, KV{Key: strings.TrimPrefix(kv.Key, s.prefix), Value: kv.Value})
	}
	return out, nil
}

func (s *prefixStore) Sync() error { return s.base.Sync() }
