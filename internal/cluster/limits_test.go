package cluster

import "github.com/neurosym/nsbench/internal/httpx"

// maxBodyBytes is the body bound the oversize-body tests pad past. The
// bound lives in internal/httpx, shared with the replicas.
const maxBodyBytes = httpx.MaxBodyBytes
