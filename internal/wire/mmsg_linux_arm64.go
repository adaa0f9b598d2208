package wire

// sendmmsg and recvmmsg on linux/arm64.
const sysSendmmsg, sysRecvmmsg = 269, 243
