package reconfig

import (
	"testing"

	"repro/internal/types"
)

// Fuzz targets for the control-plane wire codecs (ctrl.go):
// arbitrary bytes from the network must never panic a node and must either
// fail cleanly or decode to a value that re-encodes consistently. `go test`
// runs the seed corpus; `go test -fuzz=FuzzDecodeSubmitResult
// ./internal/reconfig` explores further.

func FuzzDecodeSubmitResult(f *testing.F) {
	f.Add(EncodeSubmitResult(SubmitResult{
		Status: SubmitApplied,
		Reply:  []byte("reply"),
		Config: types.MustConfig(3, "a", "b", "c"),
		Leader: "a",
	}))
	f.Add(EncodeSubmitResult(SubmitResult{Status: SubmitRedirect}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeSubmitResult(data)
		if err != nil {
			return
		}
		again, err := DecodeSubmitResult(EncodeSubmitResult(res))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Status != res.Status || string(again.Reply) != string(res.Reply) ||
			!again.Config.Equal(res.Config) || again.Leader != res.Leader {
			t.Fatalf("round trip changed: %+v -> %+v", res, again)
		}
	})
}

func FuzzDecodeLocateResult(f *testing.F) {
	f.Add(encodeLocateReply(LocateResult{
		Config: types.MustConfig(2, "x", "y"),
		Wedged: true,
		Leader: "y",
	}))
	f.Add([]byte{})
	f.Add([]byte{byte(opLocateReply)})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeLocateResult(data)
		if err != nil {
			return
		}
		again, err := DecodeLocateResult(encodeLocateReply(res))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !again.Config.Equal(res.Config) || again.Wedged != res.Wedged || again.Leader != res.Leader {
			t.Fatalf("round trip changed: %+v -> %+v", res, again)
		}
	})
}

func FuzzDecodeReconfigResult(f *testing.F) {
	f.Add(encodeReconfigReply(ReconfigResult{
		OK:     true,
		Config: types.MustConfig(4, "a", "b", "c", "d"),
	}))
	f.Add(encodeReconfigReply(ReconfigResult{Detail: "not serving"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeReconfigResult(data)
		if err != nil {
			return
		}
		again, err := DecodeReconfigResult(encodeReconfigReply(res))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.OK != res.OK || again.Detail != res.Detail || !again.Config.Equal(res.Config) {
			t.Fatalf("round trip changed: %+v -> %+v", res, again)
		}
	})
}

func FuzzDecodeChainResult(f *testing.F) {
	f.Add(encodeChainReply(ChainResult{
		Initial: types.MustConfig(1, "a"),
		Records: []ChainRecord{
			{From: 1, WedgeSlot: 12, To: types.MustConfig(2, "a", "b")},
			{From: 2, WedgeSlot: 99, To: types.MustConfig(3, "b", "c")},
		},
	}))
	f.Add([]byte{})
	f.Add([]byte{byte(opChainReply), 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeChainResult(data)
		if err != nil {
			return
		}
		again, err := DecodeChainResult(encodeChainReply(res))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again.Records) != len(res.Records) {
			t.Fatalf("round trip changed record count: %d -> %d", len(res.Records), len(again.Records))
		}
		for i := range again.Records {
			if !again.Records[i].Equal(res.Records[i]) {
				t.Fatalf("round trip changed record %d", i)
			}
		}
	})
}

func FuzzDecodeChainRecord(f *testing.F) {
	f.Add(encodeChainRecord(ChainRecord{From: 7, WedgeSlot: 42, To: types.MustConfig(8, "p", "q", "r")}))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeChainRecord(data)
		if err != nil {
			return
		}
		again, err := decodeChainRecord(encodeChainRecord(rec))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !again.Equal(rec) {
			t.Fatalf("round trip changed: %+v -> %+v", rec, again)
		}
	})
}

func FuzzDecodeSnapMetaReply(f *testing.F) {
	f.Add(encodeSnapMetaReply(snapMetaReply{
		Found:  true,
		Format: 1,
		CRCs:   []uint32{0xdeadbeef, 0, 42},
		Chunks: [][]byte{[]byte("c0"), []byte("c1")},
	}))
	f.Add(encodeSnapMetaReply(snapMetaReply{}))
	// Non-zero base index (speculative start: the installer sets its apply
	// cursor to Base, so a codec that drops or shifts it is a correctness
	// bug, not just a wire bug).
	f.Add(encodeSnapMetaReply(snapMetaReply{
		Found:  true,
		Format: 2,
		Base:   types.Slot(1 << 33),
		CRCs:   []uint32{7},
	}))
	f.Add(encodeSnapMetaReply(snapMetaReply{Found: true, Base: 1}))
	f.Add([]byte{})
	f.Add([]byte{byte(opSnapMetaReply), 0x01, 0x01, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeSnapMetaReply(data)
		if err != nil {
			return
		}
		again, err := decodeSnapMetaReply(encodeSnapMetaReply(rep))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Found != rep.Found || again.Format != rep.Format || again.Base != rep.Base ||
			len(again.CRCs) != len(rep.CRCs) || len(again.Chunks) != len(rep.Chunks) {
			t.Fatalf("round trip changed: %+v -> %+v", rep, again)
		}
		for i := range rep.CRCs {
			if again.CRCs[i] != rep.CRCs[i] {
				t.Fatalf("round trip changed CRC %d", i)
			}
		}
		for i := range rep.Chunks {
			if string(again.Chunks[i]) != string(rep.Chunks[i]) {
				t.Fatalf("round trip changed chunk %d", i)
			}
		}
	})
}

func FuzzDecodeCkptAnnounce(f *testing.F) {
	f.Add(encodeCkptAnnounce(ckptMsg{Config: 3, Base: 4096}))
	// Base 0 means "no checkpoint yet" — a codec that turns it into anything
	// else would convince peers a checkpoint is quorum-durable when it isn't.
	f.Add(encodeCkptAnnounce(ckptMsg{Config: 1}))
	f.Add(encodeCkptAnnounce(ckptMsg{Config: 1 << 40, Base: types.Slot(1 << 50)}))
	f.Add([]byte{})
	f.Add([]byte{byte(opCkptAnnounce)})
	f.Add([]byte{byte(opCkptAnnounce), 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCkptAnnounce(data)
		if err != nil {
			return
		}
		again, err := decodeCkptAnnounce(encodeCkptAnnounce(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again != m {
			t.Fatalf("round trip changed: %+v -> %+v", m, again)
		}
	})
}

func FuzzDecodeCkptAck(f *testing.F) {
	f.Add(encodeCkptAck(ckptMsg{Config: 2, Base: 30}))
	f.Add(encodeCkptAck(ckptMsg{}))
	// An ack must never decode as an announce and vice versa: the quorum-base
	// computation treats them asymmetrically (acks feed the truncation floor).
	f.Add(encodeCkptAnnounce(ckptMsg{Config: 9, Base: 9}))
	f.Add([]byte{})
	f.Add([]byte{byte(opCkptAck), 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCkptAck(data)
		if err != nil {
			return
		}
		again, err := decodeCkptAck(encodeCkptAck(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again != m {
			t.Fatalf("round trip changed: %+v -> %+v", m, again)
		}
	})
}

func FuzzDecodeSnapChunkReply(f *testing.F) {
	f.Add(encodeSnapChunkReply(snapChunkReply{Chunks: [][]byte{[]byte("chunk-bytes"), nil, []byte("x")}}))
	f.Add(encodeSnapChunkReply(snapChunkReply{}))
	f.Add([]byte{})
	f.Add([]byte{byte(opSnapChunkReply), 0x01, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeSnapChunkReply(data)
		if err != nil {
			return
		}
		again, err := decodeSnapChunkReply(encodeSnapChunkReply(rep))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again.Chunks) != len(rep.Chunks) {
			t.Fatalf("round trip changed: %+v -> %+v", rep, again)
		}
		for i := range rep.Chunks {
			if string(again.Chunks[i]) != string(rep.Chunks[i]) {
				t.Fatalf("round trip changed chunk %d", i)
			}
		}
	})
}
