package workload

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// ChaseAccesses builds a dependent pointer-chasing load stream over a region
// of regionBytes: one cache-line load per hop following a single-cycle
// permutation, at most maxSteps hops (0 means one hop per block). The walk
// is deterministic under seed. Replay it with window 1 — every hop depends
// on the previous load. Shared by cmd/vans and nvmserved chase jobs.
func ChaseAccesses(regionBytes uint64, maxSteps int, seed uint64) []mem.Access {
	if regionBytes < 2*mem.CacheLine {
		regionBytes = 2 * mem.CacheLine
	}
	steps := int(regionBytes / mem.CacheLine)
	if maxSteps > 0 && steps > maxSteps {
		steps = maxSteps
	}
	return ChaseBlocks(regionBytes, mem.CacheLine, mem.OpRead, steps, seed)
}

// ChaseBlocks builds the access list of a pointer-chasing pass (LENS's
// PC-Blocks): blocks of blockSize visited in a single-cycle random
// permutation, each block read (or written) sequentially in 64B lines.
// steps counts 64B accesses.
func ChaseBlocks(region, blockSize uint64, op mem.Op, steps int, seed uint64) []mem.Access {
	if blockSize < mem.CacheLine {
		blockSize = mem.CacheLine
	}
	nBlocks := int(region / blockSize)
	if nBlocks < 1 {
		nBlocks = 1
	}
	perm := []int32{0}
	if nBlocks > 1 {
		perm = sim.NewRNG(seed).PermCycle(nBlocks)
	}
	linesPerBlock := int(blockSize / mem.CacheLine)
	accs := make([]mem.Access, 0, steps)
	at := 0
	for len(accs) < steps {
		blockBase := uint64(at) * blockSize
		for l := 0; l < linesPerBlock && len(accs) < steps; l++ {
			accs = append(accs, mem.Access{Op: op, Addr: blockBase + uint64(l)*mem.CacheLine, Size: mem.CacheLine})
		}
		at = int(perm[at])
	}
	return accs
}

// SeqAccesses builds a sequential stream of op covering totalBytes in
// cache-line steps starting at address zero.
func SeqAccesses(totalBytes uint64, op mem.Op) []mem.Access {
	accs := make([]mem.Access, 0, totalBytes/mem.CacheLine)
	for a := uint64(0); a < totalBytes; a += mem.CacheLine {
		accs = append(accs, mem.Access{Op: op, Addr: a, Size: mem.CacheLine})
	}
	return accs
}
