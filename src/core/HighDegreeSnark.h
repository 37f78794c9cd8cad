#ifndef BZK_CORE_HIGHDEGREESNARK_H_
#define BZK_CORE_HIGHDEGREESNARK_H_

/**
 * @file
 * HighDegreeSnark<F> and HighDegreeProof<F>: the high-degree-gate
 * instantiation of the tensor SNARK (TensorSnark<F, Degree6Relation>,
 * core/TensorSnark.h).
 */

#include "core/TensorSnark.h"

#endif // BZK_CORE_HIGHDEGREESNARK_H_
