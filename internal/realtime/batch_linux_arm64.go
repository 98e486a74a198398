package realtime

import "syscall"

// sysSendmmsg is sendmmsg's syscall number (see batch_linux_amd64.go).
const sysSendmmsg uintptr = syscall.SYS_SENDMMSG
