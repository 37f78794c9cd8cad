#ifndef BZK_CORE_SNARK_H_
#define BZK_CORE_SNARK_H_

/**
 * @file
 * Snark<F> and SnarkProof<F>: the table-commit instantiation of the
 * tensor SNARK (TensorSnark<F, CubicRelation>, core/TensorSnark.h).
 */

#include "core/TensorSnark.h"

#endif // BZK_CORE_SNARK_H_
