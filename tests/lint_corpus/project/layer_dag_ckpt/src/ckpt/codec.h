#pragma once
#include "trace/record.h"
inline int Encode() { return Record() + 1; }
