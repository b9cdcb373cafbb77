package candgen

// BandKey exposes a schema's bucket key in one band, so a test can write
// Pairs' definition down without Pairs (the tests are out-of-package because
// internal/feature imports candgen — an in-package test would be an import
// cycle).
func BandKey(s *SignatureSet, band, i int) uint16 { return s.keys[band*s.n+i] }

// GatherBlock exposes the gather's block size: Pairs polls ctx once per block.
const GatherBlock = gatherBlock
