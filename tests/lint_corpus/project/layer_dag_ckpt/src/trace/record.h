#pragma once
inline int Record() { return 1; }
