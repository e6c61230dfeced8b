package serve

import "github.com/neurosym/nsbench/internal/httpx"

// MaxBodyBytes is the request-body bound the oversize-body tests pad
// past. The bound lives in internal/httpx, shared with the router.
const MaxBodyBytes = httpx.MaxBodyBytes
