// Package puptest provides conformance helpers for Pup methods: every
// migratable type should survive the full sizing → packing → unpacking
// cycle with no state loss. Used together with charmvet's static pupcheck
// (internal/analysis), this closes both halves of the PUP contract: the
// analyzer proves every field is mentioned, the round trip proves the
// mentions actually reconstruct the object.
package puptest

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"charmgo/internal/pup"
)

// RoundTrip drives obj through all three traversal modes: it sizes and
// packs obj, requiring the two to agree (packing appends as it goes, so
// nothing else catches a Pup method that sizes differently), unpacks
// the bytes into a freshly allocated instance of the same type, and
// verifies the restored instance re-serializes to identical bytes. Fields
// deliberately outside the Pup contract (//pup:skip) do not participate,
// so this is the right check for chare structs carrying runtime wiring.
func RoundTrip(obj pup.Pupable) error {
	buf, fresh, err := cycle(obj)
	if err != nil {
		return err
	}
	re := pup.Pack(fresh)
	if !bytes.Equal(buf, re) {
		return fmt.Errorf("puptest: %T: restored state re-serializes differently (%d vs %d bytes)", obj, len(buf), len(re))
	}
	return nil
}

// RoundTripEqual is RoundTrip plus deep equality of the restored instance:
// use it for types whose every field is pupped (no //pup:skip waivers).
func RoundTripEqual(obj pup.Pupable) error {
	if err := RoundTrip(obj); err != nil {
		return err
	}
	_, fresh, err := cycle(obj)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(obj, fresh) {
		return fmt.Errorf("puptest: %T: restored instance differs:\n  packed:   %+v\n  restored: %+v", obj, obj, fresh)
	}
	return nil
}

// cycle packs obj and unpacks it into a fresh zero instance.
func cycle(obj pup.Pupable) (buf []byte, fresh pup.Pupable, err error) {
	rv := reflect.ValueOf(obj)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, nil, fmt.Errorf("puptest: need a non-nil pointer, got %T", obj)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("puptest: %T: %v", obj, r)
		}
	}()
	buf = pup.Pack(obj)
	if n := pup.Size(obj); n != len(buf) {
		return nil, nil, fmt.Errorf("puptest: %T: sizes to %d bytes but packs to %d (unstable Pup method?)", obj, n, len(buf))
	}
	fresh = reflect.New(rv.Type().Elem()).Interface().(pup.Pupable)
	if err := pup.Unpack(buf, fresh); err != nil {
		return nil, nil, fmt.Errorf("puptest: %T: %v", obj, err)
	}
	return buf, fresh, nil
}

// Check round-trips each object, failing t for every violation. Objects
// should carry representative non-zero state so a dropped field actually
// changes the serialization.
func Check(t testing.TB, objs ...pup.Pupable) {
	t.Helper()
	for _, obj := range objs {
		if err := RoundTrip(obj); err != nil {
			t.Error(err)
		}
	}
}

// CheckEqual is Check with the strict deep-equality variant.
func CheckEqual(t testing.TB, objs ...pup.Pupable) {
	t.Helper()
	for _, obj := range objs {
		if err := RoundTripEqual(obj); err != nil {
			t.Error(err)
		}
	}
}
