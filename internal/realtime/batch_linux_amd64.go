package realtime

// sysSendmmsg is sendmmsg's syscall number. The stdlib syscall package
// froze its amd64 table before sendmmsg, so the number is pinned here
// (arm64's table has it).
const sysSendmmsg uintptr = 307
