"""Fixed pure-Python work that calibrates the machine's current speed.

run.py runs this in a fresh process after every timed process and scales
the timed CPU time by how long this took.  It mimics the package's inner
loops (tuple building, free reduction on a list, dict inserts) but does
not import the package, so no change to the package can change it.
"""


def work(rounds: int = 30000) -> int:
    acc = 0
    seen: dict[tuple[int, ...], int] = {}
    for i in range(rounds):
        word = tuple((i * k) % 97 - 48 for k in range(1, 8))
        out: list[int] = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        seen[word] = len(out)
        acc = (acc * 31 + len(seen)) % 1000003
    return acc


if __name__ == "__main__":
    work()
