from mscgossip.cli import main
main()
