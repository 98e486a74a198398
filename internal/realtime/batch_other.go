//go:build !linux || !(amd64 || arm64)

package realtime

import "net"

// Portable stub: platforms without recvmmsg (or whose Msghdr layout the
// linux build file does not cover) get a nil reader, and UDPNode falls
// back to per-datagram ReadFromUDP — slower per event, but with
// identical semantics and accounting.

type batchReader struct{}

func newBatchReader(conn *net.UDPConn, pool *bufPool) *batchReader { return nil }

func (br *batchReader) read() (int, bool) { return 0, false }

func (br *batchReader) take(i int) (*[]byte, int, bool) { return nil, 0, false }
