package damulticast

import "sync"

// The binary frame codec lives in internal/wire so that internal
// packages (the simulator's figure generators, chiefly) can size and
// parse real frames without importing the root package. This file
// keeps the pooled encode buffers the hot send paths borrow.

// maxPooledEncodeBuf bounds buffers returned to the encode pool;
// occasional giant frames must not pin memory forever.
const maxPooledEncodeBuf = 64 << 10

// encBuf wraps a reusable encode buffer. Pooled as a pointer so
// Get/Put never allocate.
type encBuf struct{ b []byte }

var encPool = sync.Pool{New: func() any { return &encBuf{b: make([]byte, 0, 512)} }}

// getEncBuf borrows an empty encode buffer from the pool.
func getEncBuf() *encBuf { return encPool.Get().(*encBuf) }

// putEncBuf returns a buffer to the pool (oversized ones are dropped).
func putEncBuf(buf *encBuf) {
	if cap(buf.b) <= maxPooledEncodeBuf {
		buf.b = buf.b[:0]
		encPool.Put(buf)
	}
}
