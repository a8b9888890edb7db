package statemachine

import (
	"bytes"
	"sort"

	"repro/internal/types"
)

// KVOp enumerates the key/value machine's operations. Values start at 1.
type KVOp uint8

const (
	// KVPut sets key=value. Reply: OK.
	KVPut KVOp = 1
	// KVGet reads a key. Reply: OK+value or NotFound.
	KVGet KVOp = 2
	// KVDelete removes a key. Reply: OK (even if absent).
	KVDelete KVOp = 3
	// KVAppend appends bytes to a key's value (creating it). Reply: OK.
	KVAppend KVOp = 4
	// KVCAS sets key=new iff current value equals expect. Reply: OK or
	// Conflict+current (NotFound if the key is absent).
	KVCAS KVOp = 5
	// KVKeys lists up to limit keys with a prefix. Reply: OK+list.
	KVKeys KVOp = 6
	// KVSize reports the number of keys. Reply: OK+uvarint.
	KVSize KVOp = 7
)

// KVStore is a deterministic in-memory key/value machine. Keys are hashed
// across a fixed set of shards with copy-on-write snapshot forks (shardMap).
// The zero value is not usable; construct with NewKVStore.
type KVStore struct {
	shardMap[[]byte]
}

var _ Machine = (*KVStore)(nil)

// kvValues writes a value as a length-prefixed byte field.
var kvValues = &shardCodec[[]byte]{
	write: (*types.Writer).BytesField,
	read:  (*types.Reader).BytesField,
	size:  func(v []byte) int { return len(v) + 8 },
}

// NewKVStore returns an empty key/value machine.
func NewKVStore() *KVStore {
	m := &KVStore{}
	m.init(kvValues)
	return m
}

// NewKVMachine is a Factory for KVStore.
func NewKVMachine() Machine { return NewKVStore() }

// EncodePut encodes a put operation.
func EncodePut(key string, value []byte) []byte {
	w := types.NewWriter(2 + len(key) + len(value) + 8)
	w.Byte(byte(KVPut))
	w.String(key)
	w.BytesField(value)
	return w.Bytes()
}

// EncodeGet encodes a get operation.
func EncodeGet(key string) []byte {
	w := types.NewWriter(2 + len(key))
	w.Byte(byte(KVGet))
	w.String(key)
	return w.Bytes()
}

// EncodeDelete encodes a delete operation.
func EncodeDelete(key string) []byte {
	w := types.NewWriter(2 + len(key))
	w.Byte(byte(KVDelete))
	w.String(key)
	return w.Bytes()
}

// EncodeAppend encodes an append operation.
func EncodeAppend(key string, suffix []byte) []byte {
	w := types.NewWriter(2 + len(key) + len(suffix) + 8)
	w.Byte(byte(KVAppend))
	w.String(key)
	w.BytesField(suffix)
	return w.Bytes()
}

// EncodeCAS encodes a compare-and-swap operation.
func EncodeCAS(key string, expect, newValue []byte) []byte {
	w := types.NewWriter(2 + len(key) + len(expect) + len(newValue) + 12)
	w.Byte(byte(KVCAS))
	w.String(key)
	w.BytesField(expect)
	w.BytesField(newValue)
	return w.Bytes()
}

// EncodeKeys encodes a prefix-list operation.
func EncodeKeys(prefix string, limit uint64) []byte {
	w := types.NewWriter(2 + len(prefix) + 8)
	w.Byte(byte(KVKeys))
	w.String(prefix)
	w.Uvarint(limit)
	return w.Bytes()
}

// EncodeSize encodes a size query.
func EncodeSize() []byte { return []byte{byte(KVSize)} }

// ReadOnly implements ReadOnlyDetector: gets, key listings and size queries
// never mutate the store.
func (m *KVStore) ReadOnly(op []byte) bool {
	if len(op) == 0 {
		return false
	}
	switch KVOp(op[0]) {
	case KVGet, KVKeys, KVSize:
		return true
	default:
		return false
	}
}

// Apply implements Machine.
func (m *KVStore) Apply(op []byte) []byte {
	if len(op) == 0 {
		return statusReply(StatusBadOp)
	}
	r := types.NewReader(op[1:])
	switch KVOp(op[0]) {
	case KVPut:
		key := r.String()
		// The one copy a replica needs: op is a window of a batch's accept
		// record, and a value kept as a view would pin the whole record — and
		// every other command in it — for as long as the key lives.
		val := r.BytesField()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		m.set(key, val)
		return okReply(nil)
	case KVGet:
		key := r.String()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		v, ok := m.get(key)
		if !ok {
			return statusReply(StatusNotFound)
		}
		return okReply(v)
	case KVDelete:
		key := r.String()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		m.del(key)
		return okReply(nil)
	case KVAppend:
		key := r.String()
		suffix := r.BytesView() // copied into next below
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		cur, _ := m.get(key)
		next := make([]byte, 0, len(cur)+len(suffix))
		next = append(next, cur...)
		next = append(next, suffix...)
		m.set(key, next)
		return okReply(nil)
	case KVCAS:
		key := r.String()
		expect := r.BytesView()  // only compared
		newVal := r.BytesField() // kept: copied, as Put's value is
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		cur, ok := m.get(key)
		if !ok {
			return statusReply(StatusNotFound)
		}
		if !bytes.Equal(cur, expect) {
			out := make([]byte, 0, 1+len(cur))
			out = append(out, byte(StatusConflict))
			return append(out, cur...)
		}
		m.set(key, newVal)
		return okReply(nil)
	case KVKeys:
		prefix := r.String()
		limit := r.Uvarint()
		if r.Err() != nil {
			return statusReply(StatusBadOp)
		}
		keys := make([]string, 0, 16)
		for i := range m.shards {
			for k := range m.shards[i] {
				if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
					keys = append(keys, k)
				}
			}
		}
		sort.Strings(keys)
		if limit > 0 && uint64(len(keys)) > limit {
			keys = keys[:limit]
		}
		w := types.NewWriter(1 + 8*len(keys))
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.String(k)
		}
		return okReply(w.Bytes())
	case KVSize:
		w := types.NewWriter(4)
		w.Uvarint(uint64(m.Len()))
		return okReply(w.Bytes())
	default:
		return statusReply(StatusBadOp)
	}
}

// DecodeKeysReply parses the payload of a successful KVKeys reply.
func DecodeKeysReply(payload []byte) ([]string, error) {
	r := types.NewReader(payload)
	n := r.Uvarint()
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
