//go:build !linux || !(amd64 || arm64)

package realtime

import "net"

// Portable stubs: platforms without recvmmsg and sendmmsg (or whose
// Msghdr layout the linux build file does not cover) get no batched
// reader or writer, and UDPNode falls back to per-datagram ReadFromUDP
// and WriteToUDP — slower per event, but with identical semantics and
// accounting.

type batchReader struct{}

func newBatchReader(conn *net.UDPConn, pool *bufPool) *batchReader { return nil }

func (br *batchReader) read() (int, bool) { return 0, false }

func (br *batchReader) take(i int) (*[]byte, int, bool) { return nil, 0, false }

type batchWriter struct{}

func newBatchWriter(conn *net.UDPConn) *batchWriter { return nil }

func (bw *batchWriter) sockaddr(ra *net.UDPAddr) []byte { return nil }

func (bw *batchWriter) write(q *sendQueue, i int) (frames, calls int) { return 0, 0 }
