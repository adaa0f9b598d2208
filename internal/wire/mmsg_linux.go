//go:build linux && (amd64 || arm64)

package wire

import (
	"os"
	"syscall"
	"unsafe"

	"kset/internal/rounds"
)

// mmsghdr is the kernel's struct mmsghdr: a message and its byte count.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// mmsgConn is a Loopback mesh endpoint moving a batch of datagrams per
// sendmmsg or recvmmsg. What a batch touches is built once at dial — the
// peers' kernel addresses, a header and an iovec per peer, the poller
// callbacks — so a batch allocates nothing. One goroutine drives it.
type mmsgConn struct {
	*udpConn
	raw            syscall.RawConn
	addrs          []syscall.RawSockaddrInet4 // addrs[id-1]
	hdrs           []mmsghdr
	iovs           []syscall.Iovec
	todo, done     int           // the call in flight
	err            syscall.Errno // its first message that failed alone
	sendFn, recvFn func(fd uintptr) bool
}

// batched gives a loopback endpoint, whose peers are IPv4, batched I/O.
func batched(u *udpConn) (PacketConn, error) {
	raw, err := u.c.SyscallConn()
	if err != nil {
		return nil, err
	}
	n := len(u.peers)
	c := &mmsgConn{udpConn: u, raw: raw, addrs: make([]syscall.RawSockaddrInet4, n), hdrs: make([]mmsghdr, n), iovs: make([]syscall.Iovec, n)}
	for i, p := range u.peers {
		a := &c.addrs[i]
		a.Family = syscall.AF_INET
		copy(a.Addr[:], p.IP.To4())
		port := (*[2]byte)(unsafe.Pointer(&a.Port)) // network byte order
		port[0], port[1] = byte(p.Port>>8), byte(p.Port)
	}
	c.sendFn, c.recvFn = c.send, c.recv
	return c, nil
}

// start points the first len(bufs) messages at bufs, sent to dsts if any.
func (c *mmsgConn) start(bufs [][]byte, dsts []rounds.ProcessID) {
	for i, buf := range bufs {
		c.iovs[i].Base = &buf[0]
		c.iovs[i].SetLen(len(buf))
		h := &c.hdrs[i].hdr
		h.Iov, h.Iovlen, h.Name, h.Namelen = &c.iovs[i], 1, nil, 0
		if dsts != nil {
			h.Name, h.Namelen = (*byte)(unsafe.Pointer(&c.addrs[dsts[i]-1])), syscall.SizeofSockaddrInet4
		}
	}
	c.todo, c.done, c.err = len(bufs), 0, 0
}

func (c *mmsgConn) writeBatch(frames [][]byte, dsts []rounds.ProcessID) error {
	c.start(frames, dsts)
	if err := c.raw.Write(c.sendFn); err != nil || c.err == 0 {
		return err
	}
	return os.NewSyscallError("sendmmsg", c.err)
}

// send is writeBatch's poller callback: sendmmsg may take fewer messages
// than asked, so it resumes; EAGAIN waits for the socket to drain.
func (c *mmsgConn) send(fd uintptr) bool {
	for c.done < c.todo {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&c.hdrs[c.done])), uintptr(c.todo-c.done), 0, 0, 0)
		switch {
		case e == 0:
			c.done += int(n)
		case e == syscall.EAGAIN:
			return false
		case e != syscall.EINTR: // the message at done failed alone: send the rest
			if c.err == 0 {
				c.err = e
			}
			c.done++
		}
	}
	return true
}

func (c *mmsgConn) readBatch(bufs [][]byte, lens []int) (int, error) {
	c.start(bufs[:min(len(bufs), len(c.hdrs))], nil)
	if err := c.raw.Read(c.recvFn); err != nil {
		return 0, err
	}
	if c.err != 0 {
		return 0, os.NewSyscallError("recvmmsg", c.err)
	}
	for i := 0; i < c.done; i++ {
		lens[i] = int(c.hdrs[i].len)
	}
	return c.done, nil
}

// recv is readBatch's poller callback: recvmmsg takes what is queued
// without blocking; EAGAIN waits for a datagram, until the read deadline.
func (c *mmsgConn) recv(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(sysRecvmmsg, fd, uintptr(unsafe.Pointer(&c.hdrs[0])), uintptr(c.todo), syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case e == 0:
			c.done = int(n)
			return true
		case e == syscall.EAGAIN:
			return false
		case e != syscall.EINTR:
			c.err = e
			return true
		}
	}
}
