package transport

import (
	"testing"

	"mpichv/internal/vtime"
)

// BenchmarkTCPFrameEcho prices one frame round trip over loopback TCP
// between two TCPFabric endpoints — the hop every event-logger submit
// and ack crosses. An op is two frames (there and back), so allocs/op
// counts each side's send, read and inbox hop twice.
func BenchmarkTCPFrameEcho(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"0B", 0}, {"1KiB", 1 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			rt := vtime.NewReal()
			fab := NewTCPFabric(rt, map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
			a, z := fab.Attach(0, "a"), fab.Attach(1, "z")
			go func() {
				for {
					f, ok := z.Inbox().Recv()
					if !ok {
						return
					}
					z.Send(f.From, f.Kind, f.Data)
				}
			}()
			data := make([]byte, size.n)
			echo := func() {
				a.Send(1, 7, data)
				a.Inbox().Recv()
			}
			echo() // dial both directions
			b.SetBytes(int64(2 * size.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				echo()
			}
			b.StopTimer()
			a.Close()
			z.Close()
			rt.Wait()
		})
	}
}
