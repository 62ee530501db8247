"""Fixed reference work that measures the host's speed at the moment it runs.

The benchmark runs it as a fresh process right before and right after every
timed ``qpm`` child, so it pays the same interpreter start and numpy import.
It uses only numpy and the standard library, so no change to qpmedia can
move its time.  Its work mixes what the ``qpm`` commands spend their time
on: a dense LAPACK eig, Python float formatting and many small matrix
products.
"""

import numpy as np

rng = np.random.default_rng(12345)
np.linalg.eig(rng.standard_normal((200, 200)))
values = rng.standard_normal(60000)
text = "\n".join(f"{x!r},{y!r}" for x, y in zip(values[::2], values[1::2]))
m = rng.standard_normal((16, 16)) / 16
acc = np.eye(16)
for _ in range(3000):
    acc = acc @ m + np.eye(16)
