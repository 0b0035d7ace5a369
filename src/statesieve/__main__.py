from ._front import run

run()
