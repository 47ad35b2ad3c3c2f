package main

import (
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// stampConn is a TCP connection that knows when the kernel received the
// data it last read (SO_TIMESTAMPNS). A verdict's arrival is stamped
// with that time, not with the moment the generator's goroutine got to
// read it: how late a parked generator thread wakes on a shared machine
// is the generator's delay, not the program's. When one read returns
// several verdict lines, all of them carry the stamp of the latest, so
// an early line can read late, never early. The kernel stamps only data
// that arrives after stamping is turned on; a read of data without a
// stamp is stamped with the time of the read.
type stampConn struct {
	*net.TCPConn
	raw  syscall.RawConn
	last atomic.Int64 // Unix ns of the latest data read; 0 before any
}

func newStampConn(c *net.TCPConn) (*stampConn, error) {
	raw, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	return &stampConn{TCPConn: c, raw: raw}, nil
}

func (c *stampConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	var oob [64]byte
	var n, oobn int
	var rerr error
	err := c.raw.Read(func(fd uintptr) bool {
		for {
			n, oobn, _, _, rerr = syscall.Recvmsg(int(fd), p, oob[:], 0)
			if rerr != syscall.EINTR {
				return rerr != syscall.EAGAIN
			}
		}
	})
	if err == nil {
		err = rerr
	}
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, io.EOF
	}
	at := time.Now().UnixNano()
	if msgs, perr := syscall.ParseSocketControlMessage(oob[:oobn]); perr == nil {
		for _, m := range msgs {
			if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS && len(m.Data) >= int(unsafe.Sizeof(syscall.Timespec{})) {
				at = (*syscall.Timespec)(unsafe.Pointer(&m.Data[0])).Nano()
			}
		}
	}
	c.last.Store(at)
	return n, nil
}

// received returns when the kernel received the data last read; the
// current time before any.
func (c *stampConn) received() time.Time {
	if ns := c.last.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Now()
}
