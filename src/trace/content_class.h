// File-type classification.
//
// §IV-A: "we categorize objects based on their file types into video (e.g.,
// FLV, MP4, MPG, AVI, WMV), image (e.g., JPG, PNG, GIF, TIFF, BMP), and
// other (e.g., text, audio, HTML, CSS, XML, JS)".
#pragma once

#include "trace/record.h"

namespace atlas::trace {

// Maps a concrete file type to its content class.
ContentClass ClassOf(FileType type);

}  // namespace atlas::trace
