//go:build linux && (amd64 || arm64)

package realtime

import (
	"net"
	"syscall"
	"unsafe"
)

// Batched UDP receive via recvmmsg, driven through the runtime poller
// (RawConn.Read keeps the goroutine parked until the socket is ready, so
// this composes with net.UDPConn deadlines and Close). One syscall moves
// up to ioBatch datagrams, which is the difference between ~100k
// syscalls/sec and ~3k at 100k datagrams/sec. The stdlib syscall package
// has Msghdr and Iovec but not the mmsghdr wrapper, so that one struct
// is defined here; the build tag pins the architectures whose Msghdr
// field types match the assignments below. Other platforms fall back to
// per-datagram reads (udp.go readPortable).

// ioBatch is the number of datagrams moved per recvmmsg call.
const ioBatch = 32

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

func recvmmsg(fd uintptr, hdrs []mmsghdr, flags uintptr) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), flags, 0, 0)
	return int(n), e
}

// batchReader reads up to ioBatch datagrams per syscall into pooled
// buffers. Not goroutine-safe; each reader goroutine owns one.
type batchReader struct {
	rc   syscall.RawConn
	pool *bufPool
	bufs [ioBatch]*[]byte
	iovs [ioBatch]syscall.Iovec
	hdrs [ioBatch]mmsghdr
	// recv is br.recvmmsg bound once: a closure built per read would be
	// three allocations a syscall, and how many datagrams a syscall
	// returns is the kernel's choice, so allocations per datagram would
	// vary from run to run. cnt and errno carry its result out.
	recv  func(fd uintptr) bool
	cnt   int
	errno syscall.Errno
}

func newBatchReader(conn *net.UDPConn, pool *bufPool) *batchReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	br := &batchReader{rc: rc, pool: pool}
	br.recv = br.recvmmsg
	return br
}

// recvmmsg is the RawConn.Read callback: false parks the goroutine on
// the poller until the socket is readable.
func (br *batchReader) recvmmsg(fd uintptr) bool {
	for {
		n, e := recvmmsg(fd, br.hdrs[:], uintptr(syscall.MSG_DONTWAIT))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			br.cnt, br.errno = n, e
			return true
		}
	}
}

// read blocks until at least one datagram arrives (or the socket
// closes: ok=false) and returns how many slots were filled.
func (br *batchReader) read() (cnt int, ok bool) {
	for i := 0; i < ioBatch; i++ {
		if br.bufs[i] == nil {
			br.bufs[i] = br.pool.get()
		}
		b := *br.bufs[i]
		br.iovs[i].Base = &b[0]
		br.iovs[i].SetLen(len(b))
		br.hdrs[i].hdr = syscall.Msghdr{Iov: &br.iovs[i], Iovlen: 1}
		br.hdrs[i].len = 0
	}
	br.cnt, br.errno = 0, 0
	if err := br.rc.Read(br.recv); err != nil || br.errno != 0 {
		return 0, false
	}
	return br.cnt, true
}

// take transfers slot i's buffer to the caller, reporting the datagram
// length and whether the kernel truncated it to fit the buffer.
func (br *batchReader) take(i int) (buf *[]byte, n int, trunc bool) {
	buf = br.bufs[i]
	br.bufs[i] = nil
	return buf, int(br.hdrs[i].len), br.hdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0
}
