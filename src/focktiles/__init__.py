"""focktiles: exact abacus combinatorics of partition blocks.

The package computes z- and zhat-labellings of partitions, parallelotope
and hypercube tilings of blocks, and q-decomposition numbers via four
independent routes (closed formula, LLT algorithm, Rouquier-block
Littlewood-Richardson formula, and a Scopes-chain induction), all in
exact integer / Laurent-polynomial arithmetic.

Each name is imported from the module that defines it; importing the
package loads none of them:

- `partitions`: `Partition`, conjugation, dominance, the text format;
- `laurent`: Laurent polynomials, quantum integers, the bar involution;
- `abacus`: packed beta-sets, `Abacus`, cores, quotients, blocks, the
  per-partition memo `facts`, crystal strings, the Weyl action, Scopes chains;
- `labels`: bead movements, rimhooks, z and zhat labels, `BlockContext`;
- `fock`: Fock vectors and the divided powers E_i^(k), F_i^(k);
- `beadops`: bead operations, parallelotope moves, the Mullineux map;
- `polytope`: parallelotopes, the closed formula `d_closed`, tilings;
- `canonical`: LLT, the Rouquier formula and the Scopes-chain induction;
- `cli` and `verify`: the command line and the acceptance suites.
"""

__version__ = "0.1.0"
