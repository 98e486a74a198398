//go:build linux && (amd64 || arm64)

package realtime

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// Batched UDP I/O via recvmmsg and sendmmsg, driven through the runtime
// poller (RawConn.Read and Write keep the goroutine parked until the
// socket is ready, so this composes with net.UDPConn deadlines and
// Close). One syscall moves up to ioBatch datagrams either way, which is
// the difference between ~100k syscalls/sec and ~3k at 100k
// datagrams/sec. The stdlib syscall package has Msghdr and Iovec but not
// the mmsghdr wrapper, so that one struct is defined here; the build tag
// pins the architectures whose Msghdr field types match the assignments
// below. Other platforms read and write one datagram a syscall
// (udp.go readPortable and flush), paths that are compiled here too.

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

func sendmmsg(fd uintptr, hdrs []mmsghdr, flags uintptr) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(sysSendmmsg, fd,
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

// batchWriter writes the send queue with sendmmsg, each frame to its own
// peer through msghdr.Name. It belongs to the executor, like the queue.
type batchWriter struct {
	rc syscall.RawConn
	// family is the socket's address family, read once from
	// getsockname: it decides how a peer's sockaddr is laid out.
	family uint16
	iovs   [ioBatch]syscall.Iovec
	hdrs   [ioBatch]mmsghdr
	// send is bw.sendmmsg bound once, like batchReader.recv. It offers
	// hdrs[from:k]; cnt and errno carry its result out, and calls counts
	// the syscalls it made.
	send         func(fd uintptr) bool
	from, k, cnt int
	calls        int
	errno        syscall.Errno
}

// newBatchWriter returns nil for a socket that is neither AF_INET nor
// AF_INET6; flush then writes every frame with WriteToUDP.
func newBatchWriter(conn *net.UDPConn) *batchWriter {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	var sa syscall.Sockaddr
	var serr error
	if err := rc.Control(func(fd uintptr) { sa, serr = syscall.Getsockname(int(fd)) }); err != nil || serr != nil {
		return nil
	}
	bw := &batchWriter{rc: rc}
	switch sa.(type) {
	case *syscall.SockaddrInet4:
		bw.family = syscall.AF_INET
	case *syscall.SockaddrInet6:
		bw.family = syscall.AF_INET6
	default:
		return nil
	}
	bw.send = bw.sendmmsg
	return bw
}

// sockaddr lays a peer's address out as the kernel reads it from
// msghdr.Name on this socket: a sockaddr_in, or a sockaddr_in6, in
// which a v4 peer of a dual-stack socket is v4-mapped. A missing or
// unspecified IP is the unspecified address, as WriteToUDP makes it. It
// returns nil for an address the family cannot hold and for one with a
// zone; WriteToUDP writes to those.
func (bw *batchWriter) sockaddr(ra *net.UDPAddr) []byte {
	if ra.Zone != "" {
		return nil
	}
	var sa []byte
	switch bw.family {
	case syscall.AF_INET:
		ip := ra.IP.To4()
		if ip == nil && len(ra.IP) != 0 {
			return nil
		}
		sa = make([]byte, syscall.SizeofSockaddrInet4)
		copy(sa[4:8], ip)
	case syscall.AF_INET6:
		sa = make([]byte, syscall.SizeofSockaddrInet6)
		if !ra.IP.Equal(net.IPv4zero) {
			copy(sa[8:24], ra.IP.To16())
		}
	}
	binary.NativeEndian.PutUint16(sa[0:2], bw.family)
	binary.BigEndian.PutUint16(sa[2:4], uint16(ra.Port))
	return sa
}

// sendmmsg is the RawConn.Write callback: false parks the goroutine on
// the poller until the socket is writable.
func (bw *batchWriter) sendmmsg(fd uintptr) bool {
	for {
		n, e := sendmmsg(fd, bw.hdrs[bw.from:bw.k], uintptr(syscall.MSG_DONTWAIT))
		bw.calls++
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			bw.cnt, bw.errno = n, e
			return true
		}
	}
}

// write sends the run of queued frames from i on that have a sockaddr,
// at most ioBatch to a call. A call that takes fewer frames than offered
// is continued where it stopped, and a frame the kernel rejects (port 0
// is EINVAL) is skipped. It returns how many frames it consumed — 0 when
// frame i has no sockaddr, every remaining one once the socket is
// closed — and how many syscalls that took.
func (bw *batchWriter) write(q *sendQueue, i int) (frames, calls int) {
	k := 0
	for ; i+k < q.n; k++ {
		to := q.frames[i+k].to
		if to.sa == nil {
			break
		}
		b := q.frame(i + k)
		bw.iovs[k].Base = &b[0]
		bw.iovs[k].SetLen(len(b))
		bw.hdrs[k].hdr = syscall.Msghdr{Name: &to.sa[0], Namelen: uint32(len(to.sa)), Iov: &bw.iovs[k], Iovlen: 1}
	}
	bw.from, bw.k, bw.calls = 0, k, 0
	for bw.from < k {
		bw.cnt, bw.errno = 0, 0
		if err := bw.rc.Write(bw.send); err != nil {
			return q.n - i, bw.calls
		}
		if bw.errno != 0 || bw.cnt <= 0 {
			bw.from++ // the first frame offered was rejected
		} else {
			bw.from += bw.cnt
		}
	}
	return k, bw.calls
}
