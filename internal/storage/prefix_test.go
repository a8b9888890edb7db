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

// TestWithPrefixStages: a prefixed view over any base — a Stager, a plain
// store, one that stages only writes — stages writes and deletes under its
// prefix, and they are stable after Sync.
func TestWithPrefixStages(t *testing.T) {
	for _, c := range []struct {
		name string
		base func(*MemStore) Store
	}{
		{"stager", func(m *MemStore) Store { return m }},
		{"plain", func(m *MemStore) Store { return plainStore{m} }},
		{"writes only", func(m *MemStore) Store { return setBufferedOnly{plainStore{m}, m} }},
	} {
		mem := NewMem()
		view := WithPrefix(c.base(mem), "g5/")
		for _, k := range []string{"d", "g5/d"} {
			if err := mem.Set(k, []byte("old")); err != nil {
				t.Fatal(err)
			}
		}
		if err := view.SetBuffered("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := view.DeleteBuffered("d"); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := view.Get("d"); ok {
			t.Fatalf("%s: staged delete invisible through the view", c.name)
		}
		if err := view.Sync(); err != nil {
			t.Fatal(err)
		}
		mem.Crash()
		if v, ok, err := mem.Get("g5/k"); err != nil || !ok || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("%s: base g5/k after Sync and a crash = %q %v %v", c.name, v, ok, err)
		}
		if _, ok, _ := mem.Get("g5/d"); ok {
			t.Fatalf("%s: a synced staged delete came back after a crash", c.name)
		}
		if _, ok, _ := mem.Get("d"); !ok {
			t.Fatalf("%s: the view's delete removed the base's own key", c.name)
		}
	}

	// Over a Stager nothing is stable before the barrier.
	mem := NewMem()
	view := WithPrefix(mem, "g5/")
	if err := mem.Set("g5/d", []byte("old")); err != nil {
		t.Fatal(err)
	}
	_ = view.SetBuffered("k", []byte("v"))
	_ = view.DeleteBuffered("d")
	mem.Crash()
	if _, ok, _ := view.Get("k"); ok {
		t.Fatal("an unsynced staged write survived a crash")
	}
	if _, ok, _ := view.Get("d"); !ok {
		t.Fatal("an unsynced staged delete survived a crash")
	}
}

// TestStagedKeepsOrderOnWriteOnlyStager: over a store that stages writes but
// not deletes — the shape of a decorator that forwards only SetBuffered —
// Staged keeps staging order. After SetBuffered(a), DeleteBuffered(b) and a
// power loss, b is gone only if a survived.
func TestStagedKeepsOrderOnWriteOnlyStager(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func(Store) Stager
	}{
		{"Staged", Staged},
		{"WithPrefix", func(s Store) Stager { return WithPrefix(s, "p/") }},
	} {
		mem := NewMem()
		s := c.wrap(setBufferedOnly{plainStore{mem}, mem})
		if err := s.Set("b", []byte("old")); err != nil {
			t.Fatal(err)
		}
		if err := s.SetBuffered("a", []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteBuffered("b"); err != nil {
			t.Fatal(err)
		}
		mem.PowerLoss()
		mem.Reopen()
		_, aOK, _ := s.Get("a")
		_, bOK, _ := s.Get("b")
		if !bOK && !aOK {
			t.Fatalf("%s: the staged delete of b became stable ahead of the write of a staged before it", c.name)
		}
	}
}

// TestStagedReturnsStagers: the stores the stack runs on are Stagers already,
// so Staged hands them back as they are and the hot path gets no wrapper.
func TestStagedReturnsStagers(t *testing.T) {
	mem := NewMem()
	wal := openTestWALStore(t, t.TempDir(), WALStoreOptions{})
	defer func() { _ = wal.Close() }()
	for name, s := range map[string]Stager{"mem": mem, "wal": wal, "prefix view": WithPrefix(mem, "g1/")} {
		if Staged(s) != s {
			t.Errorf("Staged(%s) wrapped a Stager", name)
		}
	}
}

// plainStore is a MemStore with neither SetBuffered nor DeleteBuffered.
type plainStore struct{ s *MemStore }

func (p plainStore) Set(key string, value []byte) error   { return p.s.Set(key, value) }
func (p plainStore) Get(key string) ([]byte, bool, error) { return p.s.Get(key) }
func (p plainStore) Delete(key string) error              { return p.s.Delete(key) }
func (p plainStore) Scan(prefix string) ([]KV, error)     { return p.s.Scan(prefix) }
func (p plainStore) Sync() error                          { return p.s.Sync() }

// setBufferedOnly stages writes but not deletes.
type setBufferedOnly struct {
	plainStore
	mem *MemStore
}

func (s setBufferedOnly) SetBuffered(key string, value []byte) error {
	return s.mem.SetBuffered(key, value)
}
