package codec

// The zero-RLE stage, for the external benchmarks on solver output.
var (
	ZrleMax    = zrleMax
	ZrleAppend = zrleAppend
	ZrleFlush  = zrleFlush
	ZrleDecode = zrleDecode
)
