package transport

import (
	"bytes"
	"testing"
)

// BenchmarkEncodeFrame measures producing one TCP wire frame the way
// transmit does (appendFrame straight into the connection's send queue,
// whose buffer the flusher hands back) — the hottest allocation site of the
// TCP fabric.
//
//	go test ./internal/transport/ -bench EncodeFrame -benchmem
func BenchmarkEncodeFrame(b *testing.B) {
	payload := bytes.Repeat([]byte{0xcd}, 256)
	var queue []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue = appendFrame(queue[:0], "node-01", 0, 3, 32, nil, payload)
		if len(queue) == 0 {
			b.Fatal("empty frame")
		}
	}
}
