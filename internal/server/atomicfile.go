package server

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data so that a reader — including a
// daemon recovering after a kill — sees either the previous file or the
// complete new one, never a torn write: the bytes go to a temp file in
// path's directory, which is then renamed over path. A kill between the
// two steps leaves only a "*.tmp" file, which recovery never reads (it
// opens spec.json, status.json, and manifest.json by name). It is the one
// durable-write path of both job planes.
func WriteFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
