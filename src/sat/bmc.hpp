#pragma once
// Kept so code that still includes the old bounded-checker header (and
// calls sat::capacityBound) builds; the protocol monitor lives in pdr.hpp.
#include "sat/pdr.hpp"
