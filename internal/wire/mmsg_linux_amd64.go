package wire

// sendmmsg and recvmmsg on linux/amd64 (package syscall names only the second).
const sysSendmmsg, sysRecvmmsg = 307, 299
