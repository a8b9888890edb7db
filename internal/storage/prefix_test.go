package storage

import (
	"bytes"
	"testing"
)

func TestGroupPrefix(t *testing.T) {
	cases := []struct {
		gid  uint64
		want string
	}{
		{0, ""}, {1, "g1/"}, {7, "g7/"}, {42, "g42/"}, {1 << 40, "g1099511627776/"},
	}
	for _, c := range cases {
		if got := GroupPrefix(c.gid); got != c.want {
			t.Fatalf("GroupPrefix(%d) = %q, want %q", c.gid, got, c.want)
		}
	}
}

func TestWithPrefixEmptyIsIdentity(t *testing.T) {
	base := NewMem()
	if WithPrefix(base, "") != Store(base) {
		t.Fatal("empty prefix did not return base unchanged")
	}
}

func TestWithPrefixNamespacing(t *testing.T) {
	base := NewMem()
	g1 := WithPrefix(base, GroupPrefix(1))
	g2 := WithPrefix(base, GroupPrefix(2))

	if err := g1.Set("k", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := g2.Set("k", []byte("two")); err != nil {
		t.Fatal(err)
	}

	// Views are isolated from each other.
	v, ok, err := g1.Get("k")
	if err != nil || !ok || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("g1 Get = %q %v %v", v, ok, err)
	}
	v, ok, err = g2.Get("k")
	if err != nil || !ok || !bytes.Equal(v, []byte("two")) {
		t.Fatalf("g2 Get = %q %v %v", v, ok, err)
	}

	// The base sees the physical keys.
	v, ok, err = base.Get("g1/k")
	if err != nil || !ok || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("base g1/k = %q %v %v", v, ok, err)
	}

	// Scan strips the prefix from results and stays in-namespace.
	if err := g1.Set("ka", []byte("a")); err != nil {
		t.Fatal(err)
	}
	kvs, err := g1.Scan("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("g1 scan: %d results, want 2", len(kvs))
	}
	for _, kv := range kvs {
		if kv.Key != "k" && kv.Key != "ka" {
			t.Fatalf("scan leaked prefixed key %q", kv.Key)
		}
	}
	kvs, err = g2.Scan("k")
	if err != nil || len(kvs) != 1 || kvs[0].Key != "k" {
		t.Fatalf("g2 scan = %v %v", kvs, err)
	}

	// Delete removes only the view's key.
	if err := g1.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := g1.Get("k"); ok {
		t.Fatal("g1 k survived delete")
	}
	if _, ok, _ := g2.Get("k"); !ok {
		t.Fatal("g2 k deleted by g1's delete")
	}
}

// TestWithPrefixPreservesBufferedStore: wrapping a store that stages writes
// and deletes must yield one that does both, or the Paxos event loop's type
// assertions would silently go back to one fsync per record on grouped
// replicas — and a view must not invent a capability its base lacks.
func TestWithPrefixPreservesBufferedStore(t *testing.T) {
	mem := NewMem()
	view := WithPrefix(mem, "g5/")
	bs, ok := view.(BufferedStore)
	if !ok {
		t.Fatal("prefixed view of a BufferedStore lost SetBuffered")
	}
	if err := bs.SetBuffered("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := view.Sync(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := mem.Get("g5/k")
	if err != nil || !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("base g5/k = %q %v %v", v, ok, err)
	}

	// The delete half: staged under the view's prefix, stable only after Sync.
	bd, ok := view.(BufferedDeleter)
	if !ok {
		t.Fatal("prefixed view of a BufferedDeleter lost DeleteBuffered")
	}
	if err := mem.Set("k", []byte("not the view's")); err != nil {
		t.Fatal(err)
	}
	if err := bd.DeleteBuffered("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := view.Get("k"); ok {
		t.Fatal("staged delete invisible through the view")
	}
	if _, ok, _ := mem.Get("k"); !ok {
		t.Fatal("the view's delete removed the base's own key")
	}
	mem.Crash()
	if _, ok, _ := view.Get("k"); !ok {
		t.Fatal("an unsynced staged delete survived a crash")
	}
	if err := bd.DeleteBuffered("k"); err != nil {
		t.Fatal(err)
	}
	if err := view.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	if _, ok, _ := mem.Get("g5/k"); ok {
		t.Fatal("a synced staged delete came back after a crash")
	}

	// A base without a capability must not grow it: neither half on a plain
	// store, no staged delete on a store that only stages writes (the shape of
	// the benchmark's decorator).
	plain := WithPrefix(plainStore{NewMem()}, "p/")
	if _, ok := plain.(BufferedStore); ok {
		t.Fatal("prefixed view invented SetBuffered on a plain store")
	}
	if _, ok := plain.(BufferedDeleter); ok {
		t.Fatal("prefixed view invented DeleteBuffered on a plain store")
	}
	writesOnly := WithPrefix(setBufferedOnly{plainStore{mem}, mem}, "w/")
	if _, ok := writesOnly.(BufferedStore); !ok {
		t.Fatal("prefixed view of a write-staging store lost SetBuffered")
	}
	if _, ok := writesOnly.(BufferedDeleter); ok {
		t.Fatal("prefixed view invented DeleteBuffered on a store that only stages writes")
	}
}

// plainStore strips the BufferedStore capability from a MemStore.
type plainStore struct{ s *MemStore }

func (p plainStore) Set(key string, value []byte) error   { return p.s.Set(key, value) }
func (p plainStore) Get(key string) ([]byte, bool, error) { return p.s.Get(key) }
func (p plainStore) Delete(key string) error              { return p.s.Delete(key) }
func (p plainStore) Scan(prefix string) ([]KV, error)     { return p.s.Scan(prefix) }
func (p plainStore) Sync() error                          { return p.s.Sync() }

// setBufferedOnly is a BufferedStore that is not a BufferedDeleter.
type setBufferedOnly struct {
	plainStore
	mem *MemStore
}

func (s setBufferedOnly) SetBuffered(key string, value []byte) error {
	return s.mem.SetBuffered(key, value)
}
