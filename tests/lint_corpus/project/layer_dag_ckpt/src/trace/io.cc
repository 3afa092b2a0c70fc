#include "ckpt/codec.h"
int Write() { return Encode(); }
