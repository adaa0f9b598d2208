//go:build !linux || !(amd64 || arm64)

package wire

// batched leaves the endpoint as it is: one datagram per system call.
func batched(u *udpConn) (PacketConn, error) { return u, nil }
