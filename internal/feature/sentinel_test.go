package feature

import (
	"testing"

	"schemaflow/internal/schema"
	"schemaflow/internal/terms"
)

// TestConfigPreservesTermOptions is the regression test for the TermOpts
// clobber: Config.normalized() used to replace the caller's whole
// terms.Options with DefaultOptions() whenever MinLength was left unset,
// silently discarding an explicit empty StopWords map and KeepDigits=true.
func TestConfigPreservesTermOptions(t *testing.T) {
	set := schema.Set{
		{Name: "s1", Attributes: []string{"the other", "address 2024"}},
		{Name: "s2", Attributes: []string{"price"}},
	}
	cfg := Config{TermOpts: terms.Options{StopWords: map[string]bool{}, KeepDigits: true}}
	sp := BuildLite(set, cfg)
	// "the" and "other" are on the default stop-word list and "2024" is
	// numeric; all three survive only if the explicit options do.
	for _, term := range []string{"the", "other", "2024"} {
		if _, ok := sp.VocabIndex[term]; !ok {
			t.Errorf("vocabulary missing %q: explicit TermOpts clobbered by defaults", term)
		}
	}
	// MinLength was unset, so the default 3 still applies within the
	// otherwise-preserved options.
	if _, ok := sp.VocabIndex["mm"]; ok {
		t.Error("two-letter term kept; default MinLength not applied")
	}
}

// TestConfigLiteralMinLengthZero exercises the negative escape hatch end to
// end: MinLength -1 keeps one- and two-letter terms.
func TestConfigLiteralMinLengthZero(t *testing.T) {
	set := schema.Set{
		{Name: "s1", Attributes: []string{"mm dd yy"}},
		{Name: "s2", Attributes: []string{"price"}},
	}
	sp := BuildLite(set, Config{TermOpts: terms.Options{MinLength: -1}})
	for _, term := range []string{"mm", "dd", "yy"} {
		if _, ok := sp.VocabIndex[term]; !ok {
			t.Errorf("vocabulary missing short term %q under literal MinLength 0", term)
		}
	}
}
